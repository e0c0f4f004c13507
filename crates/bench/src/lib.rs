//! Benchmark harness for the ISOSceles reproduction.
//!
//! [`engine`] is the shared suite driver: it fans the paper's 11-CNN ×
//! 4-accelerator evaluation matrix (ISOSceles, ISOSceles-single,
//! SparTen(+GoSPA), Fused-Layer) out over a worker pool, deduplicates
//! concurrent identical jobs (single-flight), and memoizes results in
//! [`cache`] — a sharded, LRU-bounded on-disk store shared with the
//! `isos-serve` server; [`suite`] holds the result data model
//! (built on `isos_sim::metrics`, with per-group *and* per-layer
//! breakdowns); [`report`] derives the standard CSV/markdown tables,
//! including the per-layer traffic split; [`trace`] runs any suite
//! workload with event tracing attached and exports Perfetto/CSV/markdown
//! timelines; [`stream`] runs `isos-stream` batched streaming-inference
//! scenarios through the same engine cache and thread budget. The `paper`
//! binary regenerates every table and figure from those results, one
//! command each (see DESIGN.md's experiment index). [`cli`] is the one
//! argument parser every binary in the workspace shares.

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod engine;
pub mod report;
pub mod stream;
pub mod suite;
pub mod trace;
