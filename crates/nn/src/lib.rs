//! CNN model substrate for the ISOSceles reproduction.
//!
//! The paper evaluates sparse CNN inference on ResNet-50, MobileNetV1,
//! VGG-16, and GoogLeNet (Sec. V). This crate provides everything those
//! workloads need:
//!
//! - [`layer`]: layer descriptors in the paper's tensor layouts
//!   (`[H,W,C]` activations, `[C,R,K,S]` filters),
//! - [`graph`]: network DAGs with skip connections and block hints,
//! - [`models`]: the model zoo and the 11-workload evaluation suite,
//! - [`sparsity`]: STR-like and uniform weight profiles, plus Fig.-4-shaped
//!   activation densities,
//! - [`pruning`]: functional magnitude pruning and ReLU on real tensors,
//! - [`mod@reference`]: golden dense executors used to validate the IS-OS
//!   dataflow,
//! - [`work`]: per-column work profiles consumed by the cycle-level models.
//!
//! # Examples
//!
//! ```
//! use isos_nn::models::resnet50;
//! let net = resnet50(0.96, 42);
//! assert!((net.weight_sparsity() - 0.96).abs() < 0.02);
//! assert_eq!(net.conv_ids().len(), 53);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod layer;
pub mod models;
pub mod pruning;
pub mod reference;
pub mod sparsity;
pub mod work;
