//! The pipeline mapper: greedy layer grouping under on-chip resource
//! constraints (paper Sec. V, "Benchmarks"; Table IV).
//!
//! ISOSceles pipelines layers greedily from the start of the network until
//! the filter buffer, context arrays, or queues would overflow. Pooling and
//! FC layers are pipeline boundaries; ResNet is grouped at bottleneck-block
//! granularity (a block's skip connection must stay inside its group).
//! Layers whose activation height exceeds the lane count are tiled on `P`;
//! single layers whose weights exceed the filter buffer are tiled on `K`
//! (Sec. IV-C).

use std::fmt;

use crate::config::IsoscelesConfig;
use isos_nn::graph::{Network, NodeId};
use isos_nn::layer::{Layer, LayerKind};
use serde::{Deserialize, Serialize};

/// How the mapper schedules the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Inter-layer pipelining (full ISOSceles).
    Pipelined,
    /// Layer-by-layer execution with the IS-OS dataflow
    /// (ISOSceles-single, the Fig. 18 ablation).
    SingleLayer,
}

/// One pipeline: a set of layers co-resident on the IS-OS block.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineGroup {
    /// Group name: the paper's convention is the first conv layer's name
    /// (Table IV: `l1.0.conv1`).
    pub name: String,
    /// Member layers, topological.
    pub layers: Vec<NodeId>,
    /// Tiles along the output-row dimension `P` (1 = untiled).
    pub p_tiles: usize,
    /// Tiles along the output-channel dimension `K` (single-layer groups
    /// only; 1 = untiled).
    pub k_tiles: usize,
}

impl PipelineGroup {
    /// Builds a group from an explicit layer set, deriving the name (the
    /// paper's convention: the first conv layer, else the first layer) and
    /// the `P`/`K` tiling the mapper would choose for these members.
    ///
    /// This is the building block design-space explorers use to construct
    /// pipeline partitions other than the greedy mapper's; use
    /// [`Mapping::from_partitions`] to build (and validate) a whole plan.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or contains an out-of-range id.
    pub fn from_layers(net: &Network, cfg: &IsoscelesConfig, layers: Vec<NodeId>) -> Self {
        Mapper::new(net).group(cfg, layers)
    }

    /// Number of convolutional layers in the group (the paper's "L"
    /// column in Table IV counts convs, not adds).
    pub fn conv_count(&self, net: &Network) -> usize {
        self.layers
            .iter()
            .filter(|&&id| {
                matches!(
                    net.layer(id).kind,
                    LayerKind::Conv { .. } | LayerKind::DwConv { .. }
                )
            })
            .count()
    }

    /// Whether the group actually pipelines multiple layers.
    pub fn is_pipelined(&self) -> bool {
        self.layers.len() > 1
    }

    /// The group, borrowed.
    pub fn view(&self) -> GroupView<'_> {
        GroupView {
            name: &self.name,
            layers: &self.layers,
            p_tiles: self.p_tiles,
            k_tiles: self.k_tiles,
        }
    }
}

/// The full execution plan for a network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Pipeline groups, in execution order.
    pub groups: Vec<PipelineGroup>,
}

/// Why an explicit partition is not a valid execution plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingError {
    /// The partition list was empty while the network has layers.
    Empty,
    /// Partition `group` has no members.
    EmptyGroup {
        /// Index of the offending partition.
        group: usize,
    },
    /// A member id is not a node of the network.
    UnknownLayer {
        /// Index of the offending partition.
        group: usize,
        /// The out-of-range id.
        layer: NodeId,
    },
    /// A layer appears in more than one partition.
    DuplicateLayer(NodeId),
    /// A layer appears in no partition.
    MissingLayer(NodeId),
    /// Flattened execution order is not topological (node ids must be
    /// strictly increasing across the whole plan, since groups run
    /// sequentially and consumers need their producers' outputs).
    OutOfOrder {
        /// Index of the offending partition.
        group: usize,
        /// The layer breaking the order.
        layer: NodeId,
    },
    /// A multi-layer partition contains a layer ISOSceles cannot pipeline
    /// (pooling and FC layers are pipeline boundaries, Sec. V).
    NotPipelineable {
        /// Index of the offending partition.
        group: usize,
        /// The non-pipelineable layer.
        layer: NodeId,
    },
    /// A partition pipelines more layers than the hardware has contexts.
    TooManyContexts {
        /// Index of the offending partition.
        group: usize,
        /// Members in the partition.
        len: usize,
        /// `cfg.max_contexts`.
        max: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MappingError::Empty => write!(f, "no partitions for a non-empty network"),
            MappingError::EmptyGroup { group } => write!(f, "partition {group} is empty"),
            MappingError::UnknownLayer { group, layer } => {
                write!(f, "partition {group} names unknown layer {layer}")
            }
            MappingError::DuplicateLayer(l) => write!(f, "layer {l} mapped more than once"),
            MappingError::MissingLayer(l) => write!(f, "layer {l} not mapped"),
            MappingError::OutOfOrder { group, layer } => {
                write!(
                    f,
                    "partition {group}: layer {layer} breaks topological order"
                )
            }
            MappingError::NotPipelineable { group, layer } => {
                write!(
                    f,
                    "partition {group} pipelines non-pipelineable layer {layer}"
                )
            }
            MappingError::TooManyContexts { group, len, max } => {
                write!(
                    f,
                    "partition {group} has {len} layers but only {max} contexts exist"
                )
            }
        }
    }
}

impl std::error::Error for MappingError {}

impl Mapping {
    /// Builds a validated execution plan from explicit partitions: each
    /// inner `Vec<NodeId>` becomes one [`PipelineGroup`], in order.
    ///
    /// This is the entry point for design-space exploration over
    /// alternative pipeline groupings (the greedy [`map_network`] is just
    /// one point in that space). Validation enforces what the hardware and
    /// the execution model require — every layer exactly once, strictly
    /// increasing (topological) order, only pipelineable kinds inside
    /// multi-layer groups, and at most `cfg.max_contexts` members — but
    /// deliberately *not* the greedy mapper's buffer-fit heuristics:
    /// oversubscribed partitions are legal to construct, and the cycle
    /// model charges their traffic honestly.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found.
    pub fn from_partitions(
        net: &Network,
        cfg: &IsoscelesConfig,
        partitions: &[Vec<NodeId>],
    ) -> Result<Self, MappingError> {
        if partitions.is_empty() && !net.is_empty() {
            return Err(MappingError::Empty);
        }
        let mut seen = vec![false; net.len()];
        let mut prev: Option<NodeId> = None;
        for (gi, part) in partitions.iter().enumerate() {
            if part.is_empty() {
                return Err(MappingError::EmptyGroup { group: gi });
            }
            if part.len() > cfg.max_contexts {
                return Err(MappingError::TooManyContexts {
                    group: gi,
                    len: part.len(),
                    max: cfg.max_contexts,
                });
            }
            for &id in part {
                if id >= net.len() {
                    return Err(MappingError::UnknownLayer {
                        group: gi,
                        layer: id,
                    });
                }
                if seen[id] {
                    return Err(MappingError::DuplicateLayer(id));
                }
                seen[id] = true;
                if prev.is_some_and(|p| id <= p) {
                    return Err(MappingError::OutOfOrder {
                        group: gi,
                        layer: id,
                    });
                }
                prev = Some(id);
                if part.len() > 1 && !net.layer(id).kind.is_pipelineable() {
                    return Err(MappingError::NotPipelineable {
                        group: gi,
                        layer: id,
                    });
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(MappingError::MissingLayer(missing));
        }
        let mapper = Mapper::new(net);
        let groups = partitions
            .iter()
            .map(|part| mapper.group(cfg, part.clone()))
            .collect();
        Ok(Self { groups })
    }

    /// The plan's partitions as plain layer-id lists (the inverse of
    /// [`Mapping::from_partitions`]).
    pub fn partitions(&self) -> Vec<Vec<NodeId>> {
        self.groups.iter().map(|g| g.layers.clone()).collect()
    }

    /// Maximum number of layers pipelined together.
    pub fn max_group_len(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.layers.len())
            .max()
            .unwrap_or(0)
    }

    /// Groups that pipeline at least two layers.
    pub fn pipelined_groups(&self) -> impl Iterator<Item = &PipelineGroup> {
        self.groups.iter().filter(|g| g.is_pipelined())
    }
}

/// A schedulable unit: either one block (with its skip connection) or a
/// single uncovered layer. It borrows its name and a block's members
/// from the network, so collecting the units allocates only their list.
#[derive(Clone, Copy, Debug)]
struct Unit<'a> {
    name: &'a str,
    /// The block's members; `None` for a single uncovered layer.
    block: Option<&'a [NodeId]>,
    /// The first member.
    first: NodeId,
    pipelineable: bool,
}

impl Unit<'_> {
    /// The members, in topological order.
    fn members(&self) -> &[NodeId] {
        self.block
            .unwrap_or_else(|| std::slice::from_ref(&self.first))
    }
}

/// One layer's entry in a [`Mapper`]: what the constraint checks and the
/// tiler read of it, so they never go back to the layer.
#[derive(Clone, Copy, Debug)]
struct LayerFit {
    /// Compressed weight bytes (`Layer::weight_csf_bytes`).
    weight_bytes: f64,
    /// Accumulator occupancy of its context array ([`weight_occupancy`]).
    occupancy: f64,
    /// Output channels `K`.
    out_c: usize,
    /// Output rows `P`.
    out_h: usize,
    /// Kernel extent `R × S`.
    kernel_rs: usize,
    /// Whether the layer is a skip-connection `Add`.
    is_add: bool,
}

/// Everything [`Mapper::map`] reads: the configuration fields the greedy
/// mapper and its tiler consult, plus the execution mode.
///
/// The mapper runs on the key, not on the configuration, so it cannot
/// read a field the key leaves out: two configurations with equal keys
/// get equal mappings by construction. Design-space sweeps memoize
/// mappings on this key (bandwidth, merger radix, MACs per lane and PE
/// efficiency do not change the plan).
#[derive(Clone, Copy, Debug)]
pub struct MapKey {
    mode: ExecMode,
    lanes: usize,
    max_contexts: usize,
    filter_buffer_bytes: u64,
    context_bytes_per_lane: u64,
    accumulator_bytes: u64,
    filter_buffer_alloc_overhead: f64,
}

impl MapKey {
    /// The key of mapping under `cfg` in `mode`.
    pub fn of(cfg: &IsoscelesConfig, mode: ExecMode) -> Self {
        Self {
            mode,
            lanes: cfg.lanes,
            max_contexts: cfg.max_contexts,
            filter_buffer_bytes: cfg.filter_buffer_bytes,
            context_bytes_per_lane: cfg.context_bytes_per_lane,
            accumulator_bytes: cfg.accumulator_bytes(),
            filter_buffer_alloc_overhead: cfg.filter_buffer_alloc_overhead,
        }
    }

    /// [`IsoscelesConfig::filter_buffer_occupancy`] on the key's copy of
    /// the allocation overhead.
    fn filter_buffer_occupancy(&self, weight_csf_bytes: f64) -> f64 {
        weight_csf_bytes * self.filter_buffer_alloc_overhead
    }

    /// All fields, the overhead by bit pattern (so `Eq` is reflexive).
    fn fields(&self) -> (ExecMode, usize, usize, u64, u64, u64, u64) {
        (
            self.mode,
            self.lanes,
            self.max_contexts,
            self.filter_buffer_bytes,
            self.context_bytes_per_lane,
            self.accumulator_bytes,
            self.filter_buffer_alloc_overhead.to_bits(),
        )
    }
}

impl PartialEq for MapKey {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for MapKey {}

impl std::hash::Hash for MapKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.fields().hash(state);
    }
}

/// Builds the execution plan for `net` under `cfg`: one
/// [`Mapper::map`] on a mapper built for the call.
pub fn map_network(net: &Network, cfg: &IsoscelesConfig, mode: ExecMode) -> Mapping {
    Mapper::new(net).map(cfg, mode)
}

/// The greedy mapper of one network.
///
/// What the grouping reads of the network alone (its schedulable units
/// in order, and each layer's weight footprint, accumulator occupancy,
/// output shape and kernel) is gathered once, in [`Mapper::new`]; each
/// [`map`](Self::map) then reads only those facts and the
/// configuration's [`MapKey`]. A design-space sweep maps one network
/// under hundreds of configurations through one mapper.
#[derive(Clone, Debug)]
pub struct Mapper<'a> {
    net: &'a Network,
    /// Blocks (from the graph's hints) plus singleton units for
    /// uncovered layers, in topological order.
    units: Vec<Unit<'a>>,
    /// Per node.
    layers: Vec<LayerFit>,
}

impl<'a> Mapper<'a> {
    /// Gathers the facts of `net` the grouping reads.
    pub fn new(net: &'a Network) -> Self {
        let layers = net
            .nodes()
            .iter()
            .map(|node| {
                let layer = &node.layer;
                let (r, s) = layer.kind.kernel();
                LayerFit {
                    weight_bytes: layer.weight_csf_bytes(),
                    occupancy: weight_occupancy(layer),
                    out_c: layer.output.c,
                    out_h: layer.output.h,
                    kernel_rs: r * s,
                    is_add: matches!(layer.kind, LayerKind::Add),
                }
            })
            .collect();
        Self {
            net,
            units: collect_units(net),
            layers,
        }
    }

    /// The execution plan under `cfg` in `mode`: [`plan`](Self::plan)
    /// into a fresh [`Plan`], copied out as owned groups.
    pub fn map(&self, cfg: &IsoscelesConfig, mode: ExecMode) -> Mapping {
        // No buffer outgrows the network: each layer is in one group.
        let n = self.layers.len();
        let mut plan = Plan {
            layers: Vec::with_capacity(n),
            groups: Vec::with_capacity(n),
            open: Vec::with_capacity(n),
            candidate: Vec::with_capacity(n),
        };
        self.plan(cfg, mode, &mut plan);
        Mapping {
            groups: plan
                .groups()
                .map(|g| PipelineGroup {
                    name: g.name.to_owned(),
                    layers: g.layers.to_vec(),
                    p_tiles: g.p_tiles,
                    k_tiles: g.k_tiles,
                })
                .collect(),
        }
    }

    /// Writes the execution plan under `cfg` in `mode` into `plan`,
    /// replacing what it held. Reusing one `plan` across calls, a caller
    /// plans without allocating once its buffers have grown.
    pub fn plan(&self, cfg: &IsoscelesConfig, mode: ExecMode, plan: &mut Plan<'a>) {
        let key = MapKey::of(cfg, mode);
        plan.layers.clear();
        plan.groups.clear();
        // The open pipeline: the name of its first unit; its members are
        // `plan.open`, flattened as units join it.
        let mut open: Option<&'a str> = None;
        for unit in &self.units {
            let members = unit.members();
            if !unit.pipelineable || key.mode == ExecMode::SingleLayer {
                self.close(&key, &mut open, plan);
                self.push_decomposed(&key, members, plan);
                continue;
            }
            // Would appending this unit violate a resource constraint?
            if open.is_some() {
                plan.candidate.clear();
                plan.candidate.extend_from_slice(&plan.open);
                plan.candidate.extend_from_slice(members);
                if !self.fits(&key, &plan.candidate) {
                    self.close(&key, &mut open, plan);
                }
            }
            // A unit that doesn't even fit alone runs as single layers
            // (weights tiled on K as needed).
            if !self.fits(&key, members) && members.len() > 1 {
                self.push_decomposed(&key, members, plan);
                continue;
            }
            plan.open.extend_from_slice(members);
            open.get_or_insert(unit.name);
        }
        self.close(&key, &mut open, plan);
    }

    /// Ends the open pipeline, if any, as the plan's next group.
    fn close(&self, key: &MapKey, open: &mut Option<&'a str>, plan: &mut Plan<'a>) {
        if let Some(name) = open.take() {
            let (p_tiles, k_tiles) = self.tiling_for(key, &plan.open);
            plan.layers.extend_from_slice(&plan.open);
            plan.open.clear();
            plan.push(name, p_tiles, k_tiles);
        }
    }

    /// A group of exactly `layers`, named and tiled as the mapper would
    /// (see [`PipelineGroup::from_layers`]).
    fn group(&self, cfg: &IsoscelesConfig, layers: Vec<NodeId>) -> PipelineGroup {
        assert!(!layers.is_empty(), "pipeline group must have layers");
        let net = self.net;
        let first_conv = layers
            .iter()
            .copied()
            .find(|&id| {
                matches!(
                    net.layer(id).kind,
                    LayerKind::Conv { .. } | LayerKind::DwConv { .. }
                )
            })
            .unwrap_or(layers[0]);
        // Tiling reads no mode; any mode gives the same key fields.
        let key = MapKey::of(cfg, ExecMode::Pipelined);
        let (p_tiles, k_tiles) = self.tiling_for(&key, &layers);
        PipelineGroup {
            name: net.layer(first_conv).name.clone(),
            layers,
            p_tiles,
            k_tiles,
        }
    }

    /// Emits layer-by-layer groups for `members`, fusing each `Add` with
    /// the conv that feeds it (the paper models skip-connection adds
    /// fused into the preceding conv when layers run unpipelined,
    /// Sec. V).
    fn push_decomposed(&self, key: &MapKey, members: &[NodeId], plan: &mut Plan<'a>) {
        let net = self.net;
        for &id in members {
            let feeds_last = plan
                .last_layers()
                .is_some_and(|last| net.nodes()[id].inputs.iter().any(|p| last.contains(p)));
            plan.layers.push(id);
            if self.layers[id].is_add && feeds_last {
                // The last group's members are the tail of `layers`.
                plan.groups.last_mut().expect("checked above").end += 1;
                continue;
            }
            let (p_tiles, k_tiles) = self.tiling_for(key, std::slice::from_ref(&id));
            plan.push(&net.layer(id).name, p_tiles, k_tiles);
        }
    }

    /// Checks the three on-chip constraints for co-residency: filter
    /// buffer, per-lane context arrays, and context (layer) count.
    fn fits(&self, key: &MapKey, layers: &[NodeId]) -> bool {
        if layers.len() > key.max_contexts {
            return false;
        }
        let fb: f64 = layers
            .iter()
            .map(|&id| key.filter_buffer_occupancy(self.layers[id].weight_bytes))
            .sum();
        if fb > key.filter_buffer_bytes as f64 {
            return false;
        }
        // Context arrays: assume maximal P tiling is allowed to shrink the
        // requirement; check at the tiling the group would actually use.
        let (p_tiles, _) = self.tiling_for(key, layers);
        self.context_bytes(key, layers, p_tiles) <= key.context_bytes_per_lane as f64
    }

    /// The summed per-lane context requirement of `layers` at `p_tiles`.
    fn context_bytes(&self, key: &MapKey, layers: &[NodeId], p_tiles: usize) -> f64 {
        layers
            .iter()
            .map(|&id| context_bytes_per_lane(key, &self.layers[id], p_tiles))
            .sum()
    }

    /// Chooses the `P` and `K` tiling for a group.
    fn tiling_for(&self, key: &MapKey, layers: &[NodeId]) -> (usize, usize) {
        // P tiling: required when rows exceed lanes, or to shrink contexts.
        let max_p = layers
            .iter()
            .map(|&id| self.layers[id].out_h)
            .max()
            .unwrap_or(1);
        let mut p_tiles = max_p.div_ceil(key.lanes).max(1);
        // For single layers, grow P tiling until the context fits
        // (V90-style mid-network tiling), bounded to avoid infinite loops
        // on impossible configs. Multi-layer groups must fit at their
        // natural tiling — the greedy mapper shrinks the group instead.
        if layers.len() == 1 {
            for _ in 0..8 {
                if self.context_bytes(key, layers, p_tiles) <= key.context_bytes_per_lane as f64 {
                    break;
                }
                p_tiles *= 2;
            }
        }
        // K tiling: only for single layers whose weights overflow the
        // buffer.
        let k_tiles = if layers.len() == 1 {
            let occ = key.filter_buffer_occupancy(self.layers[layers[0]].weight_bytes);
            (occ / key.filter_buffer_bytes as f64).ceil().max(1.0) as usize
        } else {
            1
        };
        (p_tiles, k_tiles)
    }
}

/// An execution plan in flat form, written by [`Mapper::plan`]: every
/// group's members back to back, and per group its name, extent and
/// tiling, all borrowed or copied from the mapper's network. A caller
/// that plans many configurations reuses one `Plan`, so planning
/// allocates nothing once the buffers have grown; [`Mapper::map`] copies
/// one out as a [`Mapping`].
#[derive(Clone, Debug, Default)]
pub struct Plan<'a> {
    /// Every group's members, group after group.
    layers: Vec<NodeId>,
    /// Per group, in execution order.
    groups: Vec<Span<'a>>,
    /// Scratch: the members of the pipeline the mapper is growing.
    open: Vec<NodeId>,
    /// Scratch: `open` plus the unit it is tested against.
    candidate: Vec<NodeId>,
}

/// One group's entry in a [`Plan`].
#[derive(Clone, Copy, Debug)]
struct Span<'a> {
    name: &'a str,
    /// Where its members end in [`Plan::layers`]; they start where the
    /// previous group's end.
    end: usize,
    p_tiles: usize,
    k_tiles: usize,
}

/// One group of a [`Plan`] or a [`Mapping`], borrowed: what the cost
/// models read of a [`PipelineGroup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupView<'p> {
    /// Group name (see [`PipelineGroup::name`]).
    pub name: &'p str,
    /// Member layers, topological.
    pub layers: &'p [NodeId],
    /// Tiles along the output-row dimension `P` (1 = untiled).
    pub p_tiles: usize,
    /// Tiles along the output-channel dimension `K` (1 = untiled).
    pub k_tiles: usize,
}

impl<'a> Plan<'a> {
    /// The groups, in execution order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = GroupView<'_>> + '_ {
        let mut start = 0;
        self.groups.iter().map(move |g| {
            let layers = &self.layers[start..g.end];
            start = g.end;
            GroupView {
                name: g.name,
                layers,
                p_tiles: g.p_tiles,
                k_tiles: g.k_tiles,
            }
        })
    }

    /// Ends a group at the current end of `layers`.
    fn push(&mut self, name: &'a str, p_tiles: usize, k_tiles: usize) {
        self.groups.push(Span {
            name,
            end: self.layers.len(),
            p_tiles,
            k_tiles,
        });
    }

    /// The members of the last group, if any.
    fn last_layers(&self) -> Option<&[NodeId]> {
        let last = self.groups.last()?;
        let start = self
            .groups
            .len()
            .checked_sub(2)
            .map_or(0, |i| self.groups[i].end);
        Some(&self.layers[start..last.end])
    }
}

/// Partitions the network into blocks (from the graph's hints) plus
/// singleton units for uncovered layers, in topological order.
#[allow(clippy::needless_range_loop)] // id doubles as the NodeId
fn collect_units(net: &Network) -> Vec<Unit<'_>> {
    let mut covered = vec![false; net.len()];
    let mut units: Vec<Unit> = Vec::new();
    for block in net.blocks() {
        for &m in &block.members {
            covered[m] = true;
        }
        let pipelineable = block
            .members
            .iter()
            .all(|&m| net.layer(m).kind.is_pipelineable());
        units.push(Unit {
            name: block_display_name(net, block.members[0], &block.name),
            block: Some(&block.members),
            first: block.members[0],
            pipelineable,
        });
    }
    for id in 0..net.len() {
        if !covered[id] {
            units.push(Unit {
                name: &net.layer(id).name,
                block: None,
                first: id,
                pipelineable: net.layer(id).kind.is_pipelineable(),
            });
        }
    }
    units.sort_by_key(|u| u.first);
    units
}

/// Table IV names pipelines after the first conv layer of the group.
fn block_display_name<'a>(net: &'a Network, first: NodeId, fallback: &'a str) -> &'a str {
    let name = &net.layer(first).name;
    if name.is_empty() {
        fallback
    } else {
        name
    }
}

/// Accumulator occupancy of one layer's context array. A slot `(r, k, s)`
/// is live only if any of the C input channels contributes a nonzero
/// product, so occupancy falls with weight/activation sparsity — this is
/// what lets sparser networks pipeline more layers (Sec. VI-A). Depends
/// only on the layer (not the tiling), so a [`Mapper`] computes it once.
fn weight_occupancy(layer: &Layer) -> f64 {
    let c = layer.input.c.max(1) as f64;
    let p_hit = (layer.weight_density * layer.in_act_density).clamp(0.0, 1.0);
    (1.0 - (1.0 - p_hit).powf(c)).clamp(0.05, 1.0)
}

/// Per-lane context requirement of one layer (paper Sec. III-A: partial
/// state is ~`K x R x S` accumulators per lane, double-buffered;
/// Sec. IV-C: small layers split `K` across lanes, large layers stack
/// rows per lane).
fn context_bytes_per_lane(key: &MapKey, layer: &LayerFit, p_tiles: usize) -> f64 {
    let rows_per_tile = layer.out_h.div_ceil(p_tiles).max(1);
    let rows_per_lane = rows_per_tile.div_ceil(key.lanes).max(1);
    let k_split = if rows_per_tile < key.lanes {
        (key.lanes / rows_per_tile).max(1)
    } else {
        1
    };
    let k_per_lane = layer.out_c.div_ceil(k_split).max(1);
    let acc = key.accumulator_bytes as f64;
    if layer.is_add {
        // Adds run on the merger path; they only stage one output
        // wavefront.
        return (k_per_lane as f64) * acc;
    }
    // Partial results are stored *compressed* in the context array
    // (Sec. IV-A: T1 is never materialized dense); see
    // [`weight_occupancy`]. 1.5x covers coordinate metadata and staging
    // slack.
    1.5 * layer.occupancy * (k_per_lane * layer.kernel_rs * rows_per_lane) as f64 * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::{mobilenet_v1, resnet50, vgg16};

    fn cfg() -> IsoscelesConfig {
        IsoscelesConfig::default()
    }

    #[test]
    fn resnet96_pipelines_at_block_granularity() {
        let net = resnet50(0.96, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
        // The paper: only the first conv and FC are not pipelined in R96;
        // pipelines are 3-6 convs (1-2 blocks).
        let pipelined: Vec<_> = mapping.pipelined_groups().collect();
        assert!(!pipelined.is_empty());
        for g in &pipelined {
            let convs = g.conv_count(&net);
            assert!(
                (3..=9).contains(&convs),
                "group {} has {convs} convs",
                g.name
            );
        }
        // conv1 must be its own group, tiled on P (112 rows > 64 lanes).
        let conv1 = mapping.groups.iter().find(|g| g.name == "conv1").unwrap();
        assert_eq!(conv1.layers.len(), 1);
        assert!(conv1.p_tiles >= 2);
    }

    #[test]
    fn sparser_resnet_pipelines_more_layers() {
        let m96 = map_network(&resnet50(0.96, 1), &cfg(), ExecMode::Pipelined);
        let m99 = map_network(&resnet50(0.99, 1), &cfg(), ExecMode::Pipelined);
        assert!(
            m99.max_group_len() >= m96.max_group_len(),
            "R99 groups {} vs R96 {}",
            m99.max_group_len(),
            m96.max_group_len()
        );
        // R99 should pipeline more than one block somewhere (9+ layers in
        // the paper).
        let convs_99 = m99
            .pipelined_groups()
            .map(|g| g.conv_count(&resnet50(0.99, 1)))
            .max()
            .unwrap();
        assert!(convs_99 >= 6, "R99 max convs {convs_99}");
    }

    #[test]
    fn single_layer_mode_never_pipelines_convs() {
        let net = resnet50(0.96, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::SingleLayer);
        // At most one conv per group (adds fuse into the conv feeding
        // them, as the paper does for unpipelined skip connections).
        for g in &mapping.groups {
            assert!(g.conv_count(&net) <= 1, "group {} pipelines convs", g.name);
            assert!(g.layers.len() <= 2);
        }
        // Every layer appears exactly once.
        let total: usize = mapping.groups.iter().map(|g| g.layers.len()).sum();
        assert_eq!(total, net.len());
    }

    #[test]
    fn every_layer_mapped_exactly_once() {
        for net in [resnet50(0.9, 1), mobilenet_v1(0.75, 1), vgg16(0.68, 1)] {
            let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
            let mut seen = vec![0u32; net.len()];
            for g in &mapping.groups {
                for &id in &g.layers {
                    seen[id] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{}: layer mapped {:?}",
                net.name,
                seen
            );
        }
    }

    #[test]
    fn pools_and_fc_are_boundaries() {
        let net = vgg16(0.68, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
        for g in &mapping.groups {
            if g.layers.len() > 1 {
                for &id in &g.layers {
                    assert!(
                        net.layer(id).kind.is_pipelineable(),
                        "non-pipelineable layer {} inside pipeline",
                        net.layer(id).name
                    );
                }
            }
        }
    }

    #[test]
    fn vgg_first_layers_tiled_on_p() {
        let net = vgg16(0.68, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
        // features.0 has 224 rows > 64 lanes: must be tiled on P.
        let g = mapping
            .groups
            .iter()
            .find(|g| {
                g.layers
                    .iter()
                    .any(|&id| net.layer(id).name == "features.0")
            })
            .unwrap();
        assert!(g.p_tiles >= 4, "p_tiles {}", g.p_tiles);
    }

    #[test]
    fn vgg_fc_layers_tile_on_k() {
        let net = vgg16(0.68, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
        // classifier.0 is 25088x4096 at 68% sparsity: ~80 MB of weights,
        // far beyond the 1 MB buffer.
        let g = mapping
            .groups
            .iter()
            .find(|g| net.layer(g.layers[0]).name == "classifier.0")
            .unwrap();
        assert!(g.k_tiles > 1, "k_tiles {}", g.k_tiles);
    }

    #[test]
    fn explicit_partitions_round_trip_the_greedy_mapping() {
        for net in [resnet50(0.96, 1), mobilenet_v1(0.89, 1), vgg16(0.68, 1)] {
            let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
            let rebuilt = Mapping::from_partitions(&net, &cfg(), &mapping.partitions())
                .expect("greedy mapping is a valid partition");
            assert_eq!(rebuilt, mapping, "{}", net.name);
        }
    }

    #[test]
    fn from_partitions_rejects_bad_plans() {
        let net = resnet50(0.96, 1);
        let c = cfg();
        let good = map_network(&net, &c, ExecMode::Pipelined).partitions();

        assert_eq!(
            Mapping::from_partitions(&net, &c, &[]),
            Err(MappingError::Empty)
        );

        // Repeat the leading conv of a pipelined block inside its own
        // partition: the duplicate is caught before the order check.
        let mut dup = good.clone();
        let gi = good
            .iter()
            .position(|p| p.len() > 1)
            .expect("a pipelined partition");
        let repeated = dup[gi][0];
        dup[gi].insert(1, repeated);
        assert_eq!(
            Mapping::from_partitions(&net, &c, &dup),
            Err(MappingError::DuplicateLayer(repeated))
        );

        let mut missing = good.clone();
        missing.pop();
        assert!(matches!(
            Mapping::from_partitions(&net, &c, &missing),
            Err(MappingError::MissingLayer(_))
        ));

        let mut unordered = good.clone();
        unordered.swap(0, 1);
        assert!(matches!(
            Mapping::from_partitions(&net, &c, &unordered),
            Err(MappingError::OutOfOrder { .. })
        ));

        let mut empty = good.clone();
        empty.push(Vec::new());
        let err = Mapping::from_partitions(&net, &c, &empty).unwrap_err();
        assert!(
            matches!(
                err,
                MappingError::EmptyGroup { .. } | MappingError::MissingLayer(_)
            ),
            "{err}"
        );

        let tight = IsoscelesConfig {
            max_contexts: 1,
            ..c
        };
        assert!(matches!(
            Mapping::from_partitions(&net, &tight, &good),
            Err(MappingError::TooManyContexts { .. })
        ));
    }

    #[test]
    fn from_partitions_rejects_pipelined_pool() {
        let net = vgg16(0.68, 1);
        let c = cfg();
        // Glue everything into one giant partition: some member is a pool
        // or FC layer, which cannot be pipelined.
        let all: Vec<usize> = (0..net.len()).collect();
        let wide = IsoscelesConfig {
            max_contexts: net.len(),
            ..c
        };
        assert!(matches!(
            Mapping::from_partitions(&net, &wide, &[all]),
            Err(MappingError::NotPipelineable { .. })
        ));
    }

    #[test]
    fn group_from_layers_names_first_conv() {
        let net = resnet50(0.96, 1);
        let c = cfg();
        let mapping = map_network(&net, &c, ExecMode::Pipelined);
        let block = mapping
            .groups
            .iter()
            .find(|g| g.layers.len() > 3)
            .expect("a pipelined block");
        let rebuilt = PipelineGroup::from_layers(&net, &c, block.layers.clone());
        assert_eq!(rebuilt, *block);
    }

    #[test]
    fn mobilenet_pipelines_several_blocks() {
        let net = mobilenet_v1(0.89, 1);
        let mapping = map_network(&net, &cfg(), ExecMode::Pipelined);
        // Paper: 3-7 layers pipelined for MobileNet.
        let best = mapping
            .pipelined_groups()
            .map(|g| g.conv_count(&net))
            .max()
            .unwrap_or(0);
        assert!(best >= 3, "max pipelined convs {best}");
    }
}
