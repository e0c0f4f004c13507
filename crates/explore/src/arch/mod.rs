//! Declarative accelerator descriptions.
//!
//! This module lets an accelerator architecture be specified *as data*
//! — a JSON [`ArchDesc`] naming its compute array, buffer
//! hierarchy (with per-level sparsity features), and dataflow — and
//! lowered onto the workspace's shared simulation substrate. A
//! description becomes an [`ArchAccel`], a first-class
//! [`Accelerator`](isosceles::accel::Accelerator): it runs through the
//! bench suite engine and its cache, serves over the wire protocol, and
//! screens analytically in the design-space exploration.
//!
//! - [`schema`]: the description types, hand-written (de)serialization
//!   with actionable errors, and semantic validation.
//! - [`mod@lower`]: the interpreter mapping each dataflow family onto the
//!   exact closed form its hand-written model uses.
//! - [`mod@reference`]: constructors for the paper's machines, mirrored by
//!   the JSON files under `configs/arch/`.
//!
//! # Examples
//!
//! ```
//! use isos_explore::arch::{ArchAccel, ArchDesc, reference};
//! use isosceles::accel::Accelerator;
//! let json = serde::json::to_string(&reference::sparten());
//! let desc = ArchDesc::from_config_str(&json).unwrap();
//! let accel = ArchAccel::new(desc).unwrap();
//! let net = isos_nn::models::googlenet_inception3a(0.58, 1);
//! assert!(accel.simulate(&net, 1).total.cycles > 0);
//! ```

pub mod lower;
pub mod reference;
pub mod schema;

pub(crate) use lower::{desc_area_mm2, ArchScreen};
pub use lower::{lower, ArchAccel, Lowered};
pub use schema::{
    ArchDesc, ArchError, BufferLevel, ComputeDesc, DataflowDesc, DataflowStyle, Gating, LoopDim,
    LoopNest, MemoryDesc, PipelinePolicy, Stores, TensorBinding, TensorFormat, TensorKind,
};

use std::path::Path;

/// Loads one description from a `.json` file, validated.
///
/// # Errors
///
/// Returns an [`ArchError`] naming the file on I/O failure, or the
/// parser's/schema's actionable message.
pub fn load_path(path: &Path) -> Result<ArchDesc, ArchError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArchError::new(format!("cannot read {}: {e}", path.display())))?;
    ArchDesc::from_config_str(&text).map_err(|e| ArchError::new(format!("{}: {e}", path.display())))
}

/// Loads every `.json` description in a directory, sorted by
/// file name for deterministic ordering.
///
/// # Errors
///
/// Fails on an unreadable directory or any invalid description.
pub fn load_dir(dir: &Path) -> Result<Vec<ArchDesc>, ArchError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ArchError::new(format!("cannot read {}: {e}", dir.display())))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ArchError::new(format!(
            "no .json descriptions in {}",
            dir.display()
        )));
    }
    paths.iter().map(|p| load_path(p)).collect()
}
