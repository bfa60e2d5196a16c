//! Benchmark support crate.
//!
//! Everything lives in the `dirca-bench` binary (`src/main.rs`), the
//! pinned-seed harness: it times the spatial-index scaling sweep and writes
//! `BENCH_paper_grid.json`, with the host's parallelism, at the repository
//! root. The statistically repeated single-threaded
//! workloads, including the traced per-event-class dispatch breakdown, live
//! in `perfbench/`.
