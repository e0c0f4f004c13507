//! Memory-system and accounting substrate for the ISOSceles reproduction.
//!
//! Every accelerator model in this workspace (ISOSceles itself and the
//! SparTen / Fused-Layer baselines) is built on the same substrate so that
//! comparisons are apples-to-apples:
//!
//! - [`dram`]: a bandwidth-modeled 128 GB/s HBM interface with proportional
//!   arbitration and utilization tracking (paper Fig. 15),
//! - [`harness`]: the shared interval-simulation memory harness (post
//!   demand → grant → throttle → accumulate) every accelerator runs on,
//! - [`metrics`]: the result types ([`metrics::RunMetrics`],
//!   [`metrics::NetworkMetrics`]) with per-group and per-layer breakdowns,
//! - [`sram`]: banked on-chip buffers with coalescing and conflict
//!   accounting (the shared filter buffer of Sec. IV-A),
//! - [`queue`]: bounded decoupling FIFOs with occupancy statistics,
//! - [`stats`]: utilization and summary statistics (gmean speedups),
//! - [`energy`]: the per-operation energy model behind Fig. 17,
//! - [`area`]: the analytic area model reproducing Table II.
//!
//! # Examples
//!
//! ```
//! use isos_sim::dram::Dram;
//! use isos_sim::stats::geometric_mean;
//! let mut hbm = Dram::new(128.0);
//! hbm.grant(1_000_000.0, 0.0, 10_000);
//! assert!(hbm.utilization().ratio() > 0.7);
//! assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod dram;
pub mod energy;
pub mod harness;
pub mod metrics;
pub mod queue;
pub mod sram;
pub mod stats;

pub use harness::{DramTags, MemHarness};
pub use metrics::{NetworkMetrics, RequestSpan, RunMetrics, StreamMetrics};
