//! ISOSceles: a sparse CNN accelerator with inter-layer pipelining.
//!
//! This crate is a from-scratch reproduction of the system in *ISOSceles:
//! Accelerating Sparse CNNs through Inter-Layer Pipelining* (HPCA 2023). It
//! has two halves that share one set of data structures:
//!
//! - **Functional**: [`dataflow`] executes layers under the IS-OS dataflow
//!   (IS frontend, OS backend with R-/K-mergers, POU), producing outputs
//!   bit-equivalent to a dense golden model. This demonstrates the
//!   dataflow's defining property: activations are consumed and produced
//!   in the same wavefront order, so layers chain with tiny intermediates.
//! - **Performance**: [`arch`] simulates the time-multiplexed accelerator
//!   (Table I configuration in [`IsoscelesConfig`]) at cycle level —
//!   dynamic PE scheduling, DRAM bandwidth contention, weight preloading,
//!   inter-layer queues — over the execution plan built by [`mapping`]
//!   (greedy pipelining with P/K tiling, Table IV).
//!
//! # Examples
//!
//! Functional layer execution, validated against a dense reference:
//!
//! ```
//! use isosceles::dataflow::{execute_conv, Pou};
//! use isos_tensor::{gen, Csf};
//! let input = gen::random_csf(vec![8, 8, 4].into(), 0.5, 1);
//! let filter = gen::random_csf(vec![4, 3, 8, 3].into(), 0.1, 2);
//! let out = execute_conv(&input, &filter, 1, 1, &Pou::relu(8));
//! assert_eq!(out.output.shape().dims(), &[8, 8, 8]);
//! ```
//!
//! Cycle-level simulation of a pruned network:
//!
//! ```
//! use isosceles::{accel::Accelerator, IsoscelesConfig};
//! let net = isos_nn::models::googlenet_inception3a(0.58, 1);
//! let result = IsoscelesConfig::default().simulate(&net, 1);
//! assert!(result.total.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod arch;
pub mod config;
pub mod dataflow;
pub mod interconnect;
pub mod mapping;
pub mod spgemm;

pub use accel::Accelerator;
pub use config::IsoscelesConfig;
pub use mapping::{map_network, ExecMode, GroupView, Mapper, Mapping, PipelineGroup, Plan};
