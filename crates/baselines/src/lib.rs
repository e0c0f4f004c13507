//! Baseline accelerator models for the ISOSceles reproduction.
//!
//! The paper compares ISOSceles against two accelerators (Sec. V) plus one
//! ablation, all re-implemented here from their papers' dataflow
//! descriptions and sized to the same MAC count and memory bandwidth:
//!
//! - [`sparten`]: SparTen, the state-of-the-art sparse single-layer
//!   accelerator (output-stationary, bitmask intersection), enhanced with
//!   GoSPA's activation filtering (Table III configuration);
//! - [`fused_layer`]: Fused-Layer, the dense inter-layer-pipelining
//!   accelerator (tiled dataflow with growing input halos, 2.5 MB filter
//!   buffer);
//! - [`single`]: ISOSceles-single — IS-OS hardware run layer by layer
//!   (Fig. 18 ablation).
//!
//! Every baseline is a config struct implementing
//! [`isosceles::accel::Accelerator`], so the bench suite drives them
//! uniformly through trait objects.
//!
//! # Examples
//!
//! ```
//! use isos_baselines::{FusedLayerConfig, SpartenConfig};
//! use isosceles::accel::Accelerator;
//! let net = isos_nn::models::googlenet_inception3a(0.58, 1);
//! let ft = FusedLayerConfig::default().simulate(&net, 1);
//! let sp = SpartenConfig::default().simulate(&net, 1);
//! assert!(ft.total.cycles > 0 && sp.total.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fused_layer;
pub mod single;
pub mod sparten;

pub use fused_layer::{fused_groups, FusedLayerConfig};
pub use single::IsoscelesSingleConfig;
pub use sparten::SpartenConfig;

// Description-referenceable closed forms: the declarative-architecture
// interpreter in `isos-explore` lowers onto these exact functions.
pub use fused_layer::{
    group_facts as fused_group_facts, group_metrics as fused_group_metrics,
    group_totals as fused_group_totals, FusedGroupCost, FusedGroupFacts, FusedGroupRun,
    FusedScratch, FusedTileFacts,
};
pub use sparten::{layer_metrics as sparten_layer_metrics, OsKey};
