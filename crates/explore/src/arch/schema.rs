//! The declarative architecture-description schema.
//!
//! An [`ArchDesc`] specifies a sparse-CNN accelerator *as data*, in the
//! style of Sparseloop: a compute array, a buffer hierarchy with
//! per-level sparse-acceleration features (compression format, compute
//! skipping, gating), and a dataflow (loop nest + pipelining policy).
//! Descriptions load from JSON (see [`ArchDesc::from_config_str`] and
//! [`ArchDesc::from_value`]), are checked by [`ArchDesc::validate`], and
//! lower onto the shared simulation substrate through [`super::lower()`].
//!
//! (De)serialization is hand-written rather than derived so malformed
//! descriptions are rejected with *actionable* messages: unknown fields,
//! unknown sparsity features, and type mismatches all name the offending
//! key and list the accepted values.

use std::borrow::Cow;

use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

/// A schema or semantic error in an architecture description.
///
/// The message is human-actionable: it names the offending field or
/// level and states what was expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchError(String);

impl ArchError {
    /// Wraps a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArchError {}

impl From<JsonError> for ArchError {
    fn from(e: JsonError) -> Self {
        Self(e.to_string())
    }
}

/// A complete declarative accelerator description.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchDesc {
    /// Description name; becomes the model label (`arch:<name>`).
    pub name: String,
    /// The compute array.
    pub compute: ComputeDesc,
    /// The off-chip memory interface.
    pub memory: MemoryDesc,
    /// The on-chip buffer hierarchy, outermost (DRAM-facing) first.
    pub levels: Vec<BufferLevel>,
    /// The dataflow: loop nest plus pipelining policy.
    pub dataflow: DataflowDesc,
}

/// The compute array of a description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeDesc {
    /// Parallel lanes (clusters).
    pub lanes: usize,
    /// MAC units per lane.
    pub macs_per_lane: usize,
    /// Sustained fraction of peak MAC throughput on scheduled work.
    pub efficiency: f64,
    /// Hardware mergers per lane (0 = the machine has no mergers).
    pub mergers_per_lane: usize,
    /// Merger radix (ignored when `mergers_per_lane` is 0).
    pub merger_radix: usize,
    /// Layer contexts the compute array can time-multiplex.
    pub contexts: usize,
}

/// The off-chip memory interface of a description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryDesc {
    /// DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
}

/// One level of the on-chip buffer hierarchy.
///
/// Its bindings are stored inline and the reference templates' names are
/// borrowed, so cloning a template's level (as `ArchSpace::enumerate`
/// does for every point) copies it and allocates nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferLevel {
    /// Level name (e.g. `"filter-buffer"`): borrowed for the reference
    /// templates, owned when read from JSON.
    pub name: Cow<'static, str>,
    /// Capacity in bytes (per instance: total if shared, per lane if
    /// `per_lane`).
    pub bytes: u64,
    /// Bank count (wide-word parallelism; informational for analytics).
    pub banks: usize,
    /// Whether each lane has a private instance of this level.
    pub per_lane: bool,
    /// Effective bytes consumed per stored byte (allocation padding and
    /// bank alignment; 1.0 = none).
    pub alloc_overhead: f64,
    /// Tensors bound at this level, with their sparsity features.
    pub stores: Stores,
}

/// One tensor bound at a buffer level, with its sparse-acceleration
/// features (Sparseloop's compression / skipping / gating taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorBinding {
    /// Which tensor.
    pub tensor: TensorKind,
    /// Storage format at (and below) this level.
    pub format: TensorFormat,
    /// Whether ineffectual computation on this operand is *skipped*
    /// (saves cycles: only effectual MACs are scheduled).
    pub skipping: bool,
    /// Whether ineffectual *fetches* of this operand are gated.
    pub gating: Gating,
}

/// The tensors bound at one buffer level, in the order written: at most
/// one binding per [`TensorKind`], stored inline.
///
/// Reading a description rejects a level that binds one tensor twice,
/// and [`Stores::set`] replaces a tensor's binding in place, so no value
/// holds two bindings of a tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stores {
    /// Bindings in use.
    len: u8,
    /// The bindings, in order, one slot per [`TensorKind`]. Unused slots
    /// hold [`Stores::UNUSED`], so equality is by bindings.
    slots: [TensorBinding; 3],
}

impl Stores {
    /// What an unused slot holds.
    const UNUSED: TensorBinding = TensorBinding {
        tensor: TensorKind::Weights,
        format: TensorFormat::Dense,
        skipping: false,
        gating: Gating::None,
    };

    /// The bindings, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TensorBinding> {
        self.slots[..usize::from(self.len)].iter()
    }

    /// The binding of `tensor`, if the level binds it.
    pub fn get(&self, tensor: TensorKind) -> Option<&TensorBinding> {
        self.iter().find(|b| b.tensor == tensor)
    }

    /// Binds `binding.tensor` as `binding`: replaces the tensor's binding
    /// in place if it has one, else appends it.
    pub fn set(&mut self, binding: TensorBinding) {
        let len = usize::from(self.len);
        let slot = self.slots[..len]
            .iter()
            .position(|b| b.tensor == binding.tensor)
            .unwrap_or(len);
        self.slots[slot] = binding;
        if slot == len {
            self.len += 1;
        }
    }
}

/// No bindings.
impl Default for Stores {
    fn default() -> Self {
        Self {
            len: 0,
            slots: [Self::UNUSED; 3],
        }
    }
}

/// Collects bindings through [`Stores::set`]: a later binding of a
/// tensor replaces the earlier one.
impl FromIterator<TensorBinding> for Stores {
    fn from_iter<I: IntoIterator<Item = TensorBinding>>(bindings: I) -> Self {
        let mut stores = Self::default();
        for binding in bindings {
            stores.set(binding);
        }
        stores
    }
}

impl<'a> IntoIterator for &'a Stores {
    type Item = &'a TensorBinding;
    type IntoIter = std::slice::Iter<'a, TensorBinding>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The tensors a buffer level can bind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TensorKind {
    /// Filter weights.
    Weights,
    /// Input activations.
    Inputs,
    /// Output activations / partial sums.
    Outputs,
}

impl TensorKind {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            TensorKind::Weights => "weights",
            TensorKind::Inputs => "inputs",
            TensorKind::Outputs => "outputs",
        }
    }
}

/// Compressed tensor formats the substrate models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TensorFormat {
    /// Uncompressed.
    Dense,
    /// One mask bit per element plus one byte per nonzero (SparTen).
    Bitmask,
    /// Compressed sparse fiber (ISOSceles).
    Csf,
}

impl TensorFormat {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            TensorFormat::Dense => "dense",
            TensorFormat::Bitmask => "bitmask",
            TensorFormat::Csf => "csf",
        }
    }
}

/// Fetch-gating features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gating {
    /// No gating.
    None,
    /// GoSPA-style implicit intersection: input elements whose positions
    /// can never meet a nonzero weight are not fetched.
    Gospa,
}

impl Gating {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            Gating::None => "none",
            Gating::Gospa => "gospa",
        }
    }
}

/// The dataflow of a description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataflowDesc {
    /// Dataflow family.
    pub style: DataflowStyle,
    /// Loop nest, outermost first.
    pub loop_nest: LoopNest,
    /// Inter-layer pipelining policy.
    pub pipeline: PipelinePolicy,
}

/// The dataflow families the interpreter can lower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataflowStyle {
    /// The paper's two-phase input-stationary / output-stationary
    /// streaming dataflow (requires mergers).
    IsOs,
    /// Output-stationary with a tiled K loop: inputs are re-read once
    /// per K tile (SparTen's regime).
    OutputStationary,
    /// Dense 2-D-tiled pipeline with halo recomputation (Fused-Layer's
    /// regime); requires matching P and Q tiles.
    FusedTile,
}

impl DataflowStyle {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            DataflowStyle::IsOs => "is-os",
            DataflowStyle::OutputStationary => "output-stationary",
            DataflowStyle::FusedTile => "fused-tile",
        }
    }
}

/// Inter-layer pipelining policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelinePolicy {
    /// Layers run one at a time, spilling activations between them.
    None,
    /// Consecutive layers stream through on-chip queues (ISOSceles).
    InterLayer,
}

impl PipelinePolicy {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            PipelinePolicy::None => "none",
            PipelinePolicy::InterLayer => "inter-layer",
        }
    }
}

/// The dimensions a loop nest may name, in canonical order.
pub const LOOP_DIMS: [&str; 7] = ["N", "K", "P", "Q", "C", "R", "S"];

/// One loop-nest entry: dimension plus optional tile bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopDim {
    /// Dimension letter, one of [`LOOP_DIMS`].
    pub dim: &'static str,
    /// Tile bound, if the entry was written `"DIM/TILE"`.
    pub tile: Option<u64>,
}

impl std::fmt::Display for LoopDim {
    /// The wire spelling: `"K"`, or `"K/64"` when tiled.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tile {
            Some(tile) => write!(f, "{}/{tile}", self.dim),
            None => f.write_str(self.dim),
        }
    }
}

/// A loop nest, outermost first: each dimension of [`LOOP_DIMS`] at most
/// once, each optionally tiled by a positive bound.
///
/// A nest is parsed once, where a description is read
/// ([`LoopNest::parse`]), so every value is well-formed: validation and
/// lowering read its tiles without parsing strings. It is stored inline
/// (a description's nest allocates nothing) and serializes to the
/// strings it was parsed from, so a description's JSON, and the cache
/// key hashed from it, do not depend on this representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopNest {
    /// Entries in use, at least 1.
    len: u8,
    /// Per entry, its dimension's index in [`LOOP_DIMS`].
    dims: [u8; LOOP_DIMS.len()],
    /// Per entry, its tile bound; 0 when untiled (a bound is at least 1).
    /// Unused slots stay 0 in both arrays, so equality is by entries.
    tiles: [u64; LOOP_DIMS.len()],
}

impl LoopNest {
    /// Parses loop-nest entries, outermost first, each a dimension from
    /// [`LOOP_DIMS`] optionally tiled as `"K/64"`.
    ///
    /// # Errors
    ///
    /// Rejects an empty nest, bad tile syntax or a zero tile, unknown
    /// dimensions, and duplicates (a rank mismatch: each dimension may
    /// appear at most once), naming the offending entry.
    pub fn parse<'a>(entries: impl IntoIterator<Item = &'a str>) -> Result<Self, ArchError> {
        let mut nest = Self {
            len: 0,
            dims: [0; LOOP_DIMS.len()],
            tiles: [0; LOOP_DIMS.len()],
        };
        for entry in entries {
            nest.push(entry)?;
        }
        if nest.len == 0 {
            return Err(ArchError::new(
                "dataflow rank mismatch: `loop_nest` is empty (list dimensions outermost first, \
                 e.g. [\"K/64\", \"P\", \"Q\", \"C\", \"R\", \"S\"])",
            ));
        }
        Ok(nest)
    }

    /// Appends one entry. A full nest names every dimension, so an entry
    /// past the last slot is a duplicate or unknown and never stored.
    fn push(&mut self, entry: &str) -> Result<(), ArchError> {
        let (dim_str, tile) = match entry.split_once('/') {
            Some((d, t)) => {
                let tile: u64 = t.parse().map_err(|_| {
                    ArchError::new(format!(
                        "bad loop tile `{entry}`: the part after `/` must be a positive integer"
                    ))
                })?;
                if tile == 0 {
                    return Err(ArchError::new(format!(
                        "bad loop tile `{entry}`: tile bound must be at least 1"
                    )));
                }
                (d, tile)
            }
            None => (entry, 0),
        };
        let Some(dim) = LOOP_DIMS.iter().position(|&d| d == dim_str) else {
            return Err(ArchError::new(format!(
                "dataflow rank mismatch: unknown dimension `{dim_str}` in loop_nest (expected \
                 one of {})",
                LOOP_DIMS.join(", ")
            )));
        };
        let len = usize::from(self.len);
        if self.dims[..len].contains(&(dim as u8)) {
            return Err(ArchError::new(format!(
                "dataflow rank mismatch: dimension `{dim_str}` appears more than once in \
                 loop_nest"
            )));
        }
        self.dims[len] = dim as u8;
        self.tiles[len] = tile;
        self.len += 1;
        Ok(())
    }

    /// The entries, outermost first.
    pub fn iter(&self) -> impl Iterator<Item = LoopDim> + '_ {
        let len = usize::from(self.len);
        self.dims[..len]
            .iter()
            .zip(&self.tiles[..len])
            .map(|(&dim, &tile)| LoopDim {
                dim: LOOP_DIMS[usize::from(dim)],
                tile: (tile > 0).then_some(tile),
            })
    }

    /// The slot of dimension `dim`, if the nest names it.
    fn slot(&self, dim: &str) -> Option<usize> {
        let len = usize::from(self.len);
        self.dims[..len]
            .iter()
            .position(|&d| LOOP_DIMS[usize::from(d)] == dim)
    }

    /// The tile bound of dimension `dim`, if the nest tiles it.
    pub fn tile(&self, dim: &str) -> Option<u64> {
        let tile = self.tiles[self.slot(dim)?];
        (tile > 0).then_some(tile)
    }

    /// Tiles dimension `dim` by `tile`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the nest does not name `dim` or `tile` is 0: both are
    /// mistakes in the caller's code, not in a description.
    pub fn set_tile(&mut self, dim: &str, tile: u64) {
        assert!(tile > 0, "loop tile bound must be at least 1");
        let slot = self
            .slot(dim)
            .unwrap_or_else(|| panic!("loop nest has no `{dim}` dimension"));
        self.tiles[slot] = tile;
    }
}

impl Serialize for LoopNest {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(|l| Value::Str(l.to_string())).collect())
    }
}

impl ArchDesc {
    /// The first (outermost) level binding `tensor`, restricted to
    /// shared (`!per_lane`) levels.
    pub fn shared_level_for(&self, tensor: TensorKind) -> Option<&BufferLevel> {
        self.levels
            .iter()
            .find(|l| !l.per_lane && l.stores.iter().any(|b| b.tensor == tensor))
    }

    /// The first per-lane level binding `tensor`.
    pub fn per_lane_level_for(&self, tensor: TensorKind) -> Option<&BufferLevel> {
        self.levels
            .iter()
            .find(|l| l.per_lane && l.stores.iter().any(|b| b.tensor == tensor))
    }

    /// Whether any level skips ineffectual compute on `tensor`.
    pub fn skips(&self, tensor: TensorKind) -> bool {
        self.levels
            .iter()
            .flat_map(|l| l.stores.iter())
            .any(|b| b.tensor == tensor && b.skipping)
    }

    /// Whether any input binding enables GoSPA-style gating.
    pub fn gospa_gating(&self) -> bool {
        self.levels
            .iter()
            .flat_map(|l| l.stores.iter())
            .any(|b| b.tensor == TensorKind::Inputs && b.gating == Gating::Gospa)
    }

    /// Checks the description's semantic invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] whose message names the offending field
    /// and what the interpreter needs instead. Structural problems
    /// (unknown fields, unknown sparsity features, wrong types) are
    /// caught earlier, at deserialization.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.name.trim().is_empty() {
            return Err(ArchError::new("description `name` must be non-empty"));
        }
        if self.compute.lanes == 0 {
            return Err(ArchError::new("compute.lanes must be at least 1"));
        }
        if self.compute.macs_per_lane == 0 {
            return Err(ArchError::new("compute.macs_per_lane must be at least 1"));
        }
        if !(self.compute.efficiency > 0.0 && self.compute.efficiency <= 1.0) {
            return Err(ArchError::new(format!(
                "compute.efficiency must be in (0, 1], got {}",
                self.compute.efficiency
            )));
        }
        if self.compute.contexts == 0 {
            return Err(ArchError::new("compute.contexts must be at least 1"));
        }
        if self.compute.mergers_per_lane > 0 && self.compute.merger_radix < 2 {
            return Err(ArchError::new(
                "compute.merger_radix must be at least 2 when the machine has mergers",
            ));
        }
        // NaN must fail too, so compare for "not strictly positive".
        if self.memory.dram_bytes_per_cycle.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ArchError::new(
                "memory.dram_bytes_per_cycle must be positive",
            ));
        }
        if self.levels.is_empty() {
            return Err(ArchError::new(
                "a description needs at least one buffer level",
            ));
        }
        for level in &self.levels {
            if level.bytes == 0 {
                return Err(ArchError::new(format!(
                    "buffer level `{}` has zero size; give it a positive `bytes`",
                    level.name
                )));
            }
            if level.banks == 0 {
                return Err(ArchError::new(format!(
                    "buffer level `{}`: `banks` must be at least 1",
                    level.name
                )));
            }
            if level.alloc_overhead < 1.0 {
                return Err(ArchError::new(format!(
                    "buffer level `{}`: `alloc_overhead` must be at least 1.0",
                    level.name
                )));
            }
            for binding in &level.stores {
                if binding.gating == Gating::Gospa && binding.tensor != TensorKind::Inputs {
                    return Err(ArchError::new(format!(
                        "buffer level `{}`: gospa gating applies to the `inputs` tensor, not \
                         `{}`",
                        level.name,
                        binding.tensor.label()
                    )));
                }
            }
        }
        let nest = &self.dataflow.loop_nest;
        if self.shared_level_for(TensorKind::Weights).is_none() {
            return Err(ArchError::new(
                "no shared buffer level stores `weights`; the interpreter needs a filter buffer \
                 to size dataflow groups against",
            ));
        }
        match self.dataflow.style {
            DataflowStyle::IsOs => {
                if self.compute.mergers_per_lane == 0 {
                    return Err(ArchError::new(
                        "is-os dataflow needs mergers: set compute.mergers_per_lane (and \
                         merger_radix)",
                    ));
                }
                if self.per_lane_level_for(TensorKind::Outputs).is_none() {
                    return Err(ArchError::new(
                        "is-os dataflow needs a per-lane level storing `outputs` (the context \
                         arrays)",
                    ));
                }
                if self.per_lane_level_for(TensorKind::Inputs).is_none() {
                    return Err(ArchError::new(
                        "is-os dataflow needs a per-lane level storing `inputs` (the stream \
                         queues)",
                    ));
                }
            }
            DataflowStyle::OutputStationary => {
                if self.dataflow.pipeline != PipelinePolicy::None {
                    return Err(ArchError::new(
                        "output-stationary dataflow runs layer by layer; set dataflow.pipeline \
                         = \"none\"",
                    ));
                }
                if nest.tile("K").is_none() {
                    return Err(ArchError::new(
                        "output-stationary dataflow needs a tiled K loop (e.g. \"K/64\") to set \
                         the output channels per input pass",
                    ));
                }
            }
            DataflowStyle::FusedTile => {
                if self.dataflow.pipeline != PipelinePolicy::None {
                    return Err(ArchError::new(
                        "fused-tile dataflow pipelines through its 2-D tiling; set \
                         dataflow.pipeline = \"none\"",
                    ));
                }
                match (nest.tile("P"), nest.tile("Q")) {
                    (Some(p), Some(q)) if p == q => {}
                    _ => {
                        return Err(ArchError::new(
                            "fused-tile dataflow needs matching P and Q tiles (e.g. \"P/32\", \
                             \"Q/32\") to set the output tile edge",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads a description from JSON text and validates it.
    ///
    /// # Errors
    ///
    /// Returns the parser's or schema's actionable message.
    pub fn from_config_str(text: &str) -> Result<Self, ArchError> {
        let value =
            serde::json::parse(text).map_err(|e| ArchError::new(format!("bad JSON: {e}")))?;
        let desc = ArchDesc::from_value(&value)?;
        desc.validate()?;
        Ok(desc)
    }
}

// ---------------------------------------------------------------------
// Hand-written (de)serialization with actionable errors.
// ---------------------------------------------------------------------

/// Returns the object's pairs, rejecting non-objects and unknown keys.
fn obj_fields<'a>(
    value: &'a Value,
    ctx: &str,
    allowed: &[&str],
) -> Result<&'a [(String, Value)], JsonError> {
    let Value::Obj(pairs) = value else {
        return Err(JsonError::new(format!(
            "{ctx}: expected an object, got {}",
            value.kind()
        )));
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(JsonError::new(format!(
                "{ctx}: unknown field `{key}` (expected {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(pairs)
}

fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'a>(pairs: &'a [(String, Value)], ctx: &str, key: &str) -> Result<&'a Value, JsonError> {
    get(pairs, key).ok_or_else(|| JsonError::new(format!("{ctx}: missing required field `{key}`")))
}

fn as_count(value: &Value, ctx: &str, key: &str) -> Result<usize, JsonError> {
    value
        .as_u64()
        .map(|n| n as usize)
        .map_err(|_| JsonError::new(format!("{ctx}: `{key}` must be a non-negative integer")))
}

fn as_bytes(value: &Value, ctx: &str, key: &str) -> Result<u64, JsonError> {
    value
        .as_u64()
        .map_err(|_| JsonError::new(format!("{ctx}: `{key}` must be a non-negative integer")))
}

fn as_number(value: &Value, ctx: &str, key: &str) -> Result<f64, JsonError> {
    value
        .as_f64()
        .map_err(|_| JsonError::new(format!("{ctx}: `{key}` must be a number")))
}

fn as_flag(value: &Value, ctx: &str, key: &str) -> Result<bool, JsonError> {
    value
        .as_bool()
        .map_err(|_| JsonError::new(format!("{ctx}: `{key}` must be a boolean")))
}

fn as_text(value: &Value, ctx: &str, key: &str) -> Result<String, JsonError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError::new(format!("{ctx}: `{key}` must be a string")))
}

fn tensor_kind_from(value: &Value, ctx: &str) -> Result<TensorKind, JsonError> {
    match value.as_str() {
        Some("weights") => Ok(TensorKind::Weights),
        Some("inputs") => Ok(TensorKind::Inputs),
        Some("outputs") => Ok(TensorKind::Outputs),
        Some(other) => Err(JsonError::new(format!(
            "{ctx}: unknown tensor `{other}` (expected weights, inputs, or outputs)"
        ))),
        None => Err(JsonError::new(format!("{ctx}: `tensor` must be a string"))),
    }
}

fn format_from(value: &Value, ctx: &str) -> Result<TensorFormat, JsonError> {
    match value.as_str() {
        Some("dense") => Ok(TensorFormat::Dense),
        Some("bitmask") => Ok(TensorFormat::Bitmask),
        Some("csf") => Ok(TensorFormat::Csf),
        Some(other) => Err(JsonError::new(format!(
            "{ctx}: unknown sparsity format `{other}` (expected dense, bitmask, or csf)"
        ))),
        None => Err(JsonError::new(format!("{ctx}: `format` must be a string"))),
    }
}

fn gating_from(value: &Value, ctx: &str) -> Result<Gating, JsonError> {
    match value.as_str() {
        Some("none") => Ok(Gating::None),
        Some("gospa") => Ok(Gating::Gospa),
        Some(other) => Err(JsonError::new(format!(
            "{ctx}: unknown gating feature `{other}` (expected none or gospa)"
        ))),
        None => Err(JsonError::new(format!("{ctx}: `gating` must be a string"))),
    }
}

fn style_from(value: &Value, ctx: &str) -> Result<DataflowStyle, JsonError> {
    match value.as_str() {
        Some("is-os") => Ok(DataflowStyle::IsOs),
        Some("output-stationary") => Ok(DataflowStyle::OutputStationary),
        Some("fused-tile") => Ok(DataflowStyle::FusedTile),
        Some(other) => Err(JsonError::new(format!(
            "{ctx}: unknown dataflow style `{other}` (expected is-os, output-stationary, or \
             fused-tile)"
        ))),
        None => Err(JsonError::new(format!("{ctx}: `style` must be a string"))),
    }
}

fn pipeline_from(value: &Value, ctx: &str) -> Result<PipelinePolicy, JsonError> {
    match value.as_str() {
        Some("none") => Ok(PipelinePolicy::None),
        Some("inter-layer") => Ok(PipelinePolicy::InterLayer),
        Some(other) => Err(JsonError::new(format!(
            "{ctx}: unknown pipeline policy `{other}` (expected none or inter-layer)"
        ))),
        None => Err(JsonError::new(format!(
            "{ctx}: `pipeline` must be a string"
        ))),
    }
}

fn compute_from(value: &Value) -> Result<ComputeDesc, JsonError> {
    let ctx = "compute";
    let pairs = obj_fields(
        value,
        ctx,
        &[
            "lanes",
            "macs_per_lane",
            "efficiency",
            "mergers_per_lane",
            "merger_radix",
            "contexts",
        ],
    )?;
    Ok(ComputeDesc {
        lanes: as_count(req(pairs, ctx, "lanes")?, ctx, "lanes")?,
        macs_per_lane: as_count(req(pairs, ctx, "macs_per_lane")?, ctx, "macs_per_lane")?,
        efficiency: as_number(req(pairs, ctx, "efficiency")?, ctx, "efficiency")?,
        mergers_per_lane: match get(pairs, "mergers_per_lane") {
            Some(v) => as_count(v, ctx, "mergers_per_lane")?,
            None => 0,
        },
        merger_radix: match get(pairs, "merger_radix") {
            Some(v) => as_count(v, ctx, "merger_radix")?,
            None => 256,
        },
        contexts: match get(pairs, "contexts") {
            Some(v) => as_count(v, ctx, "contexts")?,
            None => 1,
        },
    })
}

fn memory_from(value: &Value) -> Result<MemoryDesc, JsonError> {
    let ctx = "memory";
    let pairs = obj_fields(value, ctx, &["dram_bytes_per_cycle"])?;
    Ok(MemoryDesc {
        dram_bytes_per_cycle: as_number(
            req(pairs, ctx, "dram_bytes_per_cycle")?,
            ctx,
            "dram_bytes_per_cycle",
        )?,
    })
}

fn binding_from(value: &Value, ctx: &str) -> Result<TensorBinding, JsonError> {
    let pairs = obj_fields(value, ctx, &["tensor", "format", "skipping", "gating"])?;
    Ok(TensorBinding {
        tensor: tensor_kind_from(req(pairs, ctx, "tensor")?, ctx)?,
        format: match get(pairs, "format") {
            Some(v) => format_from(v, ctx)?,
            None => TensorFormat::Dense,
        },
        skipping: match get(pairs, "skipping") {
            Some(v) => as_flag(v, ctx, "skipping")?,
            None => false,
        },
        gating: match get(pairs, "gating") {
            Some(v) => gating_from(v, ctx)?,
            None => Gating::None,
        },
    })
}

fn level_from(value: &Value, index: usize) -> Result<BufferLevel, JsonError> {
    let ctx = format!("levels[{index}]");
    let pairs = obj_fields(
        value,
        &ctx,
        &[
            "name",
            "bytes",
            "banks",
            "per_lane",
            "alloc_overhead",
            "stores",
        ],
    )?;
    let name = as_text(req(pairs, &ctx, "name")?, &ctx, "name")?;
    let ctx = format!("level `{name}`");
    let mut stores = Stores::default();
    if let Some(v) = get(pairs, "stores") {
        let arr = v
            .as_arr()
            .map_err(|_| JsonError::new(format!("{ctx}: `stores` must be an array")))?;
        for b in arr {
            let binding = binding_from(b, &format!("{ctx} stores entry"))?;
            if stores.get(binding.tensor).is_some() {
                return Err(JsonError::new(format!(
                    "{ctx}: tensor `{}` is bound more than once (a level binds each tensor at \
                     most once)",
                    binding.tensor.label()
                )));
            }
            stores.set(binding);
        }
    }
    Ok(BufferLevel {
        bytes: as_bytes(req(pairs, &ctx, "bytes")?, &ctx, "bytes")?,
        banks: match get(pairs, "banks") {
            Some(v) => as_count(v, &ctx, "banks")?,
            None => 1,
        },
        per_lane: match get(pairs, "per_lane") {
            Some(v) => as_flag(v, &ctx, "per_lane")?,
            None => false,
        },
        alloc_overhead: match get(pairs, "alloc_overhead") {
            Some(v) => as_number(v, &ctx, "alloc_overhead")?,
            None => 1.0,
        },
        stores,
        name: name.into(),
    })
}

fn dataflow_from(value: &Value) -> Result<DataflowDesc, JsonError> {
    let ctx = "dataflow";
    let pairs = obj_fields(value, ctx, &["style", "loop_nest", "pipeline"])?;
    let nest_value = req(pairs, ctx, "loop_nest")?;
    let entries = nest_value
        .as_arr()
        .map_err(|_| JsonError::new(format!("{ctx}: `loop_nest` must be an array of strings")))?;
    if let Some(v) = entries.iter().find(|v| v.as_str().is_none()) {
        return Err(JsonError::new(format!(
            "{ctx}: loop_nest entries must be strings like \"K/64\", got {}",
            v.kind()
        )));
    }
    let nest = LoopNest::parse(entries.iter().filter_map(Value::as_str))
        .map_err(|e| JsonError::new(e.message()))?;
    Ok(DataflowDesc {
        style: style_from(req(pairs, ctx, "style")?, ctx)?,
        loop_nest: nest,
        pipeline: match get(pairs, "pipeline") {
            Some(v) => pipeline_from(v, ctx)?,
            None => PipelinePolicy::None,
        },
    })
}

/// Descriptions are decoded from a tree, not straight from text: they
/// are read once per request or file, never on a hot path, and the
/// tree lets every error name the offending field in context.
impl Deserialize for ArchDesc {
    fn deserialize<'de, S: serde::json::Source<'de>>(src: &mut S) -> Result<Self, JsonError> {
        Self::from_value(&src.value()?)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        let ctx = "arch description";
        let pairs = obj_fields(
            value,
            ctx,
            &["name", "compute", "memory", "levels", "dataflow"],
        )?;
        let levels = req(pairs, ctx, "levels")?
            .as_arr()
            .map_err(|_| JsonError::new(format!("{ctx}: `levels` must be an array")))?
            .iter()
            .enumerate()
            .map(|(i, v)| level_from(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ArchDesc {
            name: as_text(req(pairs, ctx, "name")?, ctx, "name")?,
            compute: compute_from(req(pairs, ctx, "compute")?)?,
            memory: memory_from(req(pairs, ctx, "memory")?)?,
            levels,
            dataflow: dataflow_from(req(pairs, ctx, "dataflow")?)?,
        })
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for ArchDesc {
    fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            (
                "compute",
                obj(vec![
                    ("lanes", Value::U64(self.compute.lanes as u64)),
                    (
                        "macs_per_lane",
                        Value::U64(self.compute.macs_per_lane as u64),
                    ),
                    ("efficiency", Value::F64(self.compute.efficiency)),
                    (
                        "mergers_per_lane",
                        Value::U64(self.compute.mergers_per_lane as u64),
                    ),
                    ("merger_radix", Value::U64(self.compute.merger_radix as u64)),
                    ("contexts", Value::U64(self.compute.contexts as u64)),
                ]),
            ),
            (
                "memory",
                obj(vec![(
                    "dram_bytes_per_cycle",
                    Value::F64(self.memory.dram_bytes_per_cycle),
                )]),
            ),
            (
                "levels",
                Value::Arr(
                    self.levels
                        .iter()
                        .map(|l| {
                            obj(vec![
                                ("name", Value::Str(l.name.to_string())),
                                ("bytes", Value::U64(l.bytes)),
                                ("banks", Value::U64(l.banks as u64)),
                                ("per_lane", Value::Bool(l.per_lane)),
                                ("alloc_overhead", Value::F64(l.alloc_overhead)),
                                (
                                    "stores",
                                    Value::Arr(
                                        l.stores
                                            .iter()
                                            .map(|b| {
                                                obj(vec![
                                                    ("tensor", Value::Str(b.tensor.label().into())),
                                                    ("format", Value::Str(b.format.label().into())),
                                                    ("skipping", Value::Bool(b.skipping)),
                                                    ("gating", Value::Str(b.gating.label().into())),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dataflow",
                obj(vec![
                    ("style", Value::Str(self.dataflow.style.label().into())),
                    ("loop_nest", self.dataflow.loop_nest.to_value()),
                    (
                        "pipeline",
                        Value::Str(self.dataflow.pipeline.label().into()),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::reference;

    #[test]
    fn references_round_trip_through_json_values() {
        for desc in reference::all() {
            let value = desc.to_value();
            let back = ArchDesc::from_value(&value).unwrap();
            assert_eq!(back, desc);
            assert!(back.validate().is_ok(), "{}", desc.name);
        }
    }

    #[test]
    fn zero_size_level_is_rejected_with_the_level_name() {
        let mut desc = reference::sparten();
        desc.levels[0].bytes = 0;
        let err = desc.validate().unwrap_err();
        assert!(err.message().contains("zero size"), "{err}");
        assert!(err.message().contains(&*desc.levels[0].name), "{err}");
    }

    /// `desc` as JSON text with its `loop_nest` replaced by `nest`, read
    /// back through [`ArchDesc::from_config_str`].
    fn with_nest(desc: &ArchDesc, nest: Value) -> Result<ArchDesc, ArchError> {
        let mut value = desc.to_value();
        let Value::Obj(pairs) = &mut value else {
            panic!()
        };
        let dataflow = pairs.iter_mut().find(|(k, _)| k == "dataflow").unwrap();
        let Value::Obj(dataflow) = &mut dataflow.1 else {
            panic!()
        };
        dataflow
            .iter_mut()
            .find(|(k, _)| k == "loop_nest")
            .unwrap()
            .1 = nest;
        ArchDesc::from_config_str(&value.render())
    }

    fn strings(entries: &[&str]) -> Value {
        Value::Arr(entries.iter().map(|e| Value::Str(e.to_string())).collect())
    }

    #[test]
    fn duplicate_and_unknown_loop_dims_are_rank_mismatches() {
        let desc = reference::sparten();
        let err = with_nest(&desc, strings(&["K/64", "K"])).unwrap_err();
        assert!(err.message().contains("rank mismatch"), "{err}");
        assert!(err.message().contains("more than once"), "{err}");

        let err = with_nest(&desc, strings(&["Z"])).unwrap_err();
        assert!(err.message().contains("unknown dimension `Z`"), "{err}");
    }

    /// Every malformed nest is an error naming its entry, never a panic.
    #[test]
    fn hostile_loop_nests_are_errors_naming_the_entry() {
        let desc = reference::sparten();
        let cases: &[(&[&str], &str)] = &[
            (&[], "`loop_nest` is empty"),
            (&[""], "unknown dimension ``"),
            (&["/"], "bad loop tile `/`"),
            (
                &["K/"],
                "bad loop tile `K/`: the part after `/` must be a positive integer",
            ),
            (
                &["K/0"],
                "bad loop tile `K/0`: tile bound must be at least 1",
            ),
            (&["K/-1"], "bad loop tile `K/-1`: the part after `/`"),
            (
                &["K/18446744073709551616"],
                "bad loop tile `K/18446744073709551616`: the part after `/`",
            ),
            (&["Z"], "unknown dimension `Z`"),
            (
                &["K/64", "P", "K/32"],
                "dimension `K` appears more than once",
            ),
            (
                &["N", "K/64", "P", "Q", "C", "R", "S", "N"],
                "dimension `N` appears more than once",
            ),
        ];
        for &(nest, expected) in cases {
            let err = with_nest(&desc, strings(nest)).unwrap_err();
            assert!(err.message().contains(expected), "{nest:?}: {err}");
        }
        let err = with_nest(&desc, Value::Arr(vec![Value::U64(64)])).unwrap_err();
        assert!(err.message().contains("entries must be strings"), "{err}");
        // All seven dimensions fit the inline nest.
        let full = with_nest(&desc, strings(&["N", "K/64", "P", "Q", "C", "R", "S"])).unwrap();
        assert_eq!(full.dataflow.loop_nest.iter().count(), LOOP_DIMS.len());
    }

    #[test]
    fn unknown_sparsity_feature_is_rejected_with_alternatives() {
        let mut value = reference::sparten().to_value();
        // Patch the first binding's format to an unknown feature.
        let Value::Obj(pairs) = &mut value else {
            panic!()
        };
        let levels = pairs.iter_mut().find(|(k, _)| k == "levels").unwrap();
        let Value::Arr(levels) = &mut levels.1 else {
            panic!()
        };
        let Value::Obj(level) = &mut levels[0] else {
            panic!()
        };
        let stores = level.iter_mut().find(|(k, _)| k == "stores").unwrap();
        let Value::Arr(stores) = &mut stores.1 else {
            panic!()
        };
        let Value::Obj(binding) = &mut stores[0] else {
            panic!()
        };
        let format = binding.iter_mut().find(|(k, _)| k == "format").unwrap();
        format.1 = Value::Str("runlength".into());
        let err = ArchDesc::from_value(&value).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown sparsity format `runlength`"), "{msg}");
        assert!(msg.contains("dense, bitmask, or csf"), "{msg}");
    }

    #[test]
    fn unknown_fields_name_the_context() {
        let mut text = serde::json::to_string(&reference::fused_layer());
        text = text.replacen("\"lanes\"", "\"lane\"", 1);
        let err = ArchDesc::from_config_str(&text).unwrap_err();
        assert!(err.message().contains("unknown field `lane`"), "{err}");
        assert!(err.message().contains("compute"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_named() {
        let err = ArchDesc::from_config_str("{\"name\":\"x\"}").unwrap_err();
        assert!(
            err.message().contains("missing required field `levels`"),
            "{err}"
        );
        let err = ArchDesc::from_config_str("{\"name\":\"x\",\"levels\":[]}").unwrap_err();
        assert!(
            err.message().contains("missing required field `compute`"),
            "{err}"
        );
    }

    #[test]
    fn os_without_k_tile_and_fused_without_pq_tiles_are_rejected() {
        let err = with_nest(&reference::sparten(), strings(&["K", "P", "Q"])).unwrap_err();
        assert!(err.message().contains("tiled K loop"), "{err}");

        let err =
            with_nest(&reference::fused_layer(), strings(&["P/32", "Q/16", "K"])).unwrap_err();
        assert!(err.message().contains("matching P and Q tiles"), "{err}");
    }

    #[test]
    fn is_os_needs_mergers_and_lane_levels() {
        let mut desc = reference::isosceles_single();
        desc.compute.mergers_per_lane = 0;
        let err = desc.validate().unwrap_err();
        assert!(err.message().contains("needs mergers"), "{err}");
    }

    #[test]
    fn gospa_on_weights_is_rejected() {
        let mut desc = reference::sparten();
        for level in &mut desc.levels {
            if let Some(&b) = level.stores.get(TensorKind::Weights) {
                level.stores.set(TensorBinding {
                    gating: Gating::Gospa,
                    ..b
                });
            }
        }
        let err = desc.validate().unwrap_err();
        assert!(err.message().contains("gospa gating"), "{err}");
    }

    #[test]
    fn stores_keep_one_binding_per_tensor_in_written_order() {
        let inputs = TensorBinding {
            tensor: TensorKind::Inputs,
            format: TensorFormat::Bitmask,
            skipping: true,
            gating: Gating::Gospa,
        };
        let outputs = TensorBinding {
            tensor: TensorKind::Outputs,
            ..inputs
        };
        let mut stores: Stores = [outputs, inputs].into_iter().collect();
        let dense = TensorBinding {
            format: TensorFormat::Dense,
            ..outputs
        };
        stores.set(dense);
        let order: Vec<TensorBinding> = stores.iter().copied().collect();
        assert_eq!(order, [dense, inputs]);
        assert_eq!(stores.get(TensorKind::Outputs), Some(&dense));
        assert_eq!(stores.get(TensorKind::Weights), None);
        assert_eq!(stores, [dense, inputs].into_iter().collect());
        assert_ne!(stores, [inputs, dense].into_iter().collect());
    }

    #[test]
    fn loop_nest_helpers_expose_tiles() {
        let mut nest = reference::sparten().dataflow.loop_nest;
        assert_eq!(nest.tile("K"), Some(64));
        assert_eq!(nest.tile("P"), None);
        assert_eq!(nest.tile("N"), None);
        let first = nest.iter().next().unwrap();
        assert_eq!((first.dim, first.tile), ("K", Some(64)));
        nest.set_tile("P", 8);
        assert_eq!(nest.tile("P"), Some(8));
        let spelled: Vec<String> = nest.iter().map(|l| l.to_string()).collect();
        assert_eq!(spelled, ["K/64", "P/8", "Q", "C", "R", "S"]);
        assert_eq!(
            LoopNest::parse(spelled.iter().map(String::as_str)),
            Ok(nest)
        );
    }
}
