//! Benchmark support crate.
//!
//! Everything lives in the `dirca-bench` binary (`src/main.rs`), the
//! pinned-seed harness: it times the spatial-index scaling sweep and the
//! sharded engine at 1/2/4 workers, and writes `BENCH_paper_grid.json` at
//! the repository root. The statistically repeated single-threaded
//! workloads, including the traced per-event-class dispatch breakdown, live
//! in `perfbench/`.
