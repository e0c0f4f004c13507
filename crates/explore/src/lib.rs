//! Analytical-model-guided design-space exploration for ISOSceles.
//!
//! The cycle-level simulator answers "how fast is *this* configuration"
//! in milliseconds; this crate answers "which configuration should we
//! build" by layering three pieces on top of it:
//!
//! - [`model`]: a closed-form cost model estimating cycles, DRAM traffic,
//!   energy, and area for any [`IsoscelesConfig`](isosceles::IsoscelesConfig)
//!   and workload — no simulation, validated within 25% of the
//!   cycle-level model on the paper's 11-CNN suite;
//! - [`space`] + [`mod@search`]: an enumerator over described machines
//!   (lanes, buffer capacity, bandwidth, merger radix, pipeline depth,
//!   tiles), with a driver that screens every point analytically and
//!   dispatches the top-K survivors to the cycle-level simulator through
//!   the parallel, cached suite engine;
//! - [`pareto`] + [`report`]: non-dominated frontier extraction over
//!   (cycles, mm², mJ) and JSON/CSV/markdown export;
//! - [`arch`]: declarative accelerator descriptions — architectures
//!   specified as JSON data (buffer hierarchy, sparsity features,
//!   dataflow) and lowered onto the shared sim substrate, so whole
//!   architecture *families* enumerate through one screen-then-simulate
//!   flow; the paper's configuration sweep is the IS-OS slice of it.
//!
//! The `dse` binary wires these together:
//! `cargo run --release -p isos-explore --bin dse -- --net R96 --top-k 8`.
//!
//! # Examples
//!
//! ```
//! use isos_explore::model::estimate_network;
//! use isosceles::IsoscelesConfig;
//! let net = isos_nn::models::suite_workload("G58", 1).network;
//! let est = estimate_network(&net, &IsoscelesConfig::default());
//! assert!(est.cycles > 0.0 && est.dram_bytes > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod model;
pub mod pareto;
pub mod report;
pub mod search;
pub mod space;

pub use arch::{ArchAccel, ArchDesc, ArchError};
pub use model::{area_mm2, estimate_mapping, estimate_network, NetworkEstimate};
pub use pareto::pareto_indices;
pub use search::{search_arch, ArchSearchResult, SearchOptions};
pub use space::{ArchPoint, ArchSpace};
