//! Benchmark support crate.
//!
//! Everything lives in the `dirca-bench` binary (`src/main.rs`), the
//! pinned-seed harness: it times the quick paper grid end to end, the
//! engine micro-benchmarks, the spatial-index scaling sweep and the
//! sharded engine, and writes `BENCH_paper_grid.json` at the repository
//! root. The statistically repeated workloads live in `perfbench/`.
