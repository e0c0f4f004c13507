//! Cycle-level simulation of inter-layer pipelined execution.
//!
//! One [`PipelineGroup`] at a time is resident on the single time-
//! multiplexed IS-OS block (paper Sec. IV-B). The simulation advances in
//! scheduler intervals (100 cycles): each interval, layers post MAC demand
//! for the output columns whose wavefront dependencies are satisfied, the
//! dynamic scheduler divides the 4096 MACs proportionally to the previous
//! interval's demand, and the DRAM grants weight-fetch / input-fetch /
//! output-writeback bandwidth. Compute-bound and memory-bound phases — and
//! the fragmentation loss of periodic scheduling — emerge from this
//! contention rather than being assumed.

use super::scheduler::DynamicScheduler;
use crate::config::IsoscelesConfig;
use crate::mapping::{map_network, ExecMode, Mapping, PipelineGroup};
use isos_nn::graph::{ConsumerIndex, Network, NodeId};
use isos_nn::work::{layer_work_into, LayerWork};
use isos_sim::dram::{exact_recip, throttle};
use isos_sim::harness::{DramTags, MemHarness};
use isos_sim::metrics::{GroupSplit, LayerPart, NetworkMetrics, RunMetrics};
use isos_trace::{NullSink, StallKind, TraceEvent, TraceSink, UnitId, UnitKind};

/// Where a simulated layer's input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// Fetched from DRAM (producer outside the group, or network input).
    External(usize),
    /// Streamed on-chip from another layer in the group.
    Local(usize),
}

/// Per-layer execution state.
#[derive(Debug, Default)]
struct SimLayer {
    work: LayerWork,
    /// Prefix sums of `macs_per_col` for O(1) demand queries.
    cum_macs: Vec<f64>,
    producers: Vec<Source>,
    writes_extern: bool,
    weight_left: f64,
    /// Weight bytes granted so far (per-layer traffic attribution).
    weight_streamed: f64,
    /// Activation bytes granted to the external streams this layer owns,
    /// summed once the group finishes.
    acts_read: f64,
    cols_done: usize,
    col_progress: f64,
    produced_bytes: f64,
    written_bytes: f64,
    macs_executed: f64,
    /// Columns of decoupling allowed past the slowest consumer.
    ahead_cols: usize,
}

/// An input tensor streamed from DRAM.
///
/// The per-column byte profile is *not* stored here: it is exactly the
/// owning consumer layer's `work.in_bytes_per_col` (streams are deduped
/// on their first consumer), so the methods borrow that slice from the
/// caller instead of each group simulation cloning it.
#[derive(Debug)]
struct ExtStream {
    /// Column count of the byte profile (for the deadlock diagnostics).
    cols: usize,
    fetched_cols: usize,
    byte_progress: f64,
    /// Traffic multiplier: K-tiling re-reads and P-tiling halos.
    scale: f64,
    /// Group-local index of the consumer layer the stream feeds (its
    /// granted bytes are attributed to that layer's breakdown, and its
    /// `work.in_bytes_per_col` is this stream's byte profile).
    owner: usize,
    /// Bytes granted so far (per-layer traffic attribution).
    granted: f64,
    /// The raw bytes of the prefetch window that starts at column
    /// `window_at`. The window moves only when a column is fetched, so a
    /// stream throttled below a column per interval reuses the sum
    /// instead of re-adding it.
    window_at: usize,
    window: f64,
}

impl ExtStream {
    /// Bytes still to fetch for the `prefetch` columns past
    /// `fetched_cols`.
    fn remaining_bytes(&mut self, bytes_per_col: &[f64], prefetch: usize) -> f64 {
        let target = (self.fetched_cols + prefetch).min(bytes_per_col.len());
        if self.fetched_cols >= target {
            return 0.0;
        }
        if self.window_at != self.fetched_cols {
            self.window = bytes_per_col[self.fetched_cols..target].iter().sum();
            self.window_at = self.fetched_cols;
        }
        let rem = self.window * self.scale - self.byte_progress;
        if rem < 1e-6 {
            0.0
        } else {
            rem
        }
    }

    fn advance(&mut self, bytes_per_col: &[f64], granted: f64) {
        self.byte_progress += granted;
        while self.fetched_cols < bytes_per_col.len() {
            let need = bytes_per_col[self.fetched_cols] * self.scale;
            if self.byte_progress + 1e-6 < need {
                break;
            }
            self.byte_progress -= need;
            self.fetched_cols += 1;
        }
    }
}

/// Every buffer one network simulation reuses, from interval to interval
/// and from group to group.
///
/// At sub-microsecond interval cost, allocating per interval or per
/// group would be a large share of the simulation time, so one scratch
/// set lives for the whole network run: the group state (the member
/// layers' work profiles, prefix sums and producer lists, the external
/// streams, the scheduler history) and the breakdown merge are refilled
/// in place per group, and the interval buffers are sized once per group
/// and overwritten every interval. Once it has grown to the largest
/// group, a simulation touches the heap only for the metrics it returns.
///
/// The interval loop works on live sets (DESIGN.md §10): `live` lists
/// the members that can compute, and `weights`, `acts` and `writers` the
/// memory requesters that can demand bytes. A member or requester leaves
/// its set only once every term it would add is an exact zero, so the
/// sets shrink without changing a bit of the result.
///
/// Nothing carries over from one group to the next: every live entry is
/// rewritten, the sets are rebuilt and the scheduler history is reset,
/// so the results are bit-identical to a fresh scratch per group.
#[derive(Default)]
struct IntervalScratch {
    /// Member-layer state, pooled: entries `..n` belong to the current
    /// group of `n` layers, the rest keep their buffers for a later,
    /// larger group.
    layers: Vec<SimLayer>,
    ext_streams: Vec<ExtStream>,
    /// The producer behind each external stream (its dedup key).
    ext_ids: Vec<NodeId>,
    /// Created at the first group (a scratch serves one network run, so
    /// one configuration) and reset at every group.
    sched: Option<DynamicScheduler>,
    split: GroupSplit,
    frame: Frame,
    /// Members neither finished nor weight-gated, ascending (the order
    /// the advance pass sums their MACs in).
    live: Vec<usize>,
    /// Weight streams with bytes left, per member layer.
    weights: Requesters,
    /// External input streams not fully fetched.
    acts: Requesters,
    /// Members whose output goes off-chip (one writeback queue each).
    writers: Requesters,
    /// Consumer adjacency (who reads layer `i`'s output), rebuilt per
    /// group; the inner vectors keep their allocations across groups.
    consumers: Vec<Vec<usize>>,
    /// Trace unit id per member layer, rebuilt per group when tracing.
    unit_ids: Vec<UnitId>,
}

/// Per-member values of the current interval, indexed by group-local
/// layer. A member outside the live set keeps the values the full pass
/// would give it: `demand`, `used_per` and `unmet` zero, `ready` at
/// `out_cols` once finished and at `cols_done` while gated.
#[derive(Default)]
struct Frame {
    ready: Vec<usize>,
    demand: Vec<f64>,
    alloc: Vec<f64>,
    unmet: Vec<f64>,
    used_per: Vec<f64>,
    /// Whether the member had finished, or was waiting for weights, when
    /// the interval began. Updated only when a member changes state.
    done_before: Vec<bool>,
    gated: Vec<bool>,
    /// Stall snapshots, written only when tracing: the input frontier,
    /// the backpressure bound and the redistributed budget.
    r_inputs: Vec<usize>,
    r_bps: Vec<usize>,
    extra_share: Vec<f64>,
}

impl Frame {
    /// Grows every buffer to at least `n` entries (the trace snapshots
    /// only when `tracing`). Entries `..n` are rewritten at every group
    /// start (see `simulate_group_into`), so nothing is filled here: the
    /// buffers only ever grow.
    fn grow(&mut self, n: usize, tracing: bool) {
        if self.ready.len() < n {
            self.ready.resize(n, 0);
            self.demand.resize(n, 0.0);
            self.unmet.resize(n, 0.0);
            self.used_per.resize(n, 0.0);
            self.done_before.resize(n, false);
            self.gated.resize(n, false);
        }
        if tracing && self.r_inputs.len() < n {
            self.r_inputs.resize(n, 0);
            self.r_bps.resize(n, usize::MAX);
            self.extra_share.resize(n, 0.0);
        }
    }
}

/// One class of memory requesters, compacted to those that can still
/// demand bytes: [`MemHarness::step`] is posted `bytes` and grants them
/// in place, and `units` tags their trace events (empty when untraced).
#[derive(Default)]
struct Requesters {
    /// Member layer or external stream of each requester, ascending.
    idx: Vec<usize>,
    units: Vec<UnitId>,
    bytes: Vec<f64>,
}

impl Requesters {
    fn clear(&mut self) {
        self.idx.clear();
        self.units.clear();
        self.bytes.clear();
    }

    /// Adds requester `i`, tagged `unit` when tracing.
    fn push(&mut self, i: usize, unit: Option<UnitId>) {
        self.idx.push(i);
        self.units.extend(unit);
        self.bytes.push(0.0);
    }

    fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Writes each requester's demand.
    fn post(&mut self, mut demand: impl FnMut(usize) -> f64) {
        for (b, &i) in self.bytes.iter_mut().zip(&self.idx) {
            *b = demand(i);
        }
    }

    /// Hands each requester its grant, in order, and keeps those for
    /// which `settle` returns true.
    fn settle(&mut self, mut settle: impl FnMut(usize, f64) -> bool) {
        let mut kept = 0;
        for j in 0..self.idx.len() {
            if settle(self.idx[j], self.bytes[j]) {
                if kept != j {
                    self.idx[kept] = self.idx[j];
                    if let Some(&unit) = self.units.get(j) {
                        self.units[kept] = unit;
                    }
                }
                kept += 1;
            }
        }
        if kept < self.idx.len() {
            self.idx.truncate(kept);
            self.units.truncate(kept);
            self.bytes.truncate(kept);
        }
    }
}

/// A group's per-interval constants.
#[derive(Clone, Copy)]
struct Pace {
    /// Scheduler interval, in cycles.
    interval: u64,
    /// MACs one PE completes in an interval (`interval * pe_efficiency`).
    capacity: f64,
    pe_efficiency: f64,
    total_macs: f64,
    /// Table I's 4096 MACs are a power of two, so the per-interval
    /// utilization ratio can use a multiply (see `exact_recip`).
    inv_total_macs: Option<f64>,
}

impl Pace {
    /// Closes an interval in which `executed` MACs ran.
    fn account(&self, metrics: &mut RunMetrics, executed: f64) {
        metrics.cycles += self.interval;
        let mac_ratio = match self.inv_total_macs {
            Some(inv) => executed * inv,
            None => executed / self.total_macs,
        };
        metrics.mac_util.add(mac_ratio, self.interval);
        metrics.effectual_macs += executed;
    }
}

/// Result of simulating one pipeline group: the group totals plus the
/// per-layer breakdown behind them (Fig. 12-16 report layers).
#[derive(Clone, Debug, PartialEq)]
pub struct GroupRun {
    /// Group totals.
    pub metrics: RunMetrics,
    /// Per-member-layer metrics in group order; they accumulate back to
    /// `metrics` (exactly for cycles, to float association for the rest).
    pub layers: Vec<(String, RunMetrics)>,
}

/// Simulates one pipeline group to completion.
///
/// # Panics
///
/// Panics if the simulation deadlocks (a model bug) or exceeds a safety
/// bound of cycles.
pub fn simulate_group(
    net: &Network,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    seed: u64,
) -> GroupRun {
    let mut out = NetworkMetrics::default();
    simulate_group_into::<false>(
        net,
        cfg,
        group,
        seed,
        0,
        &mut NullSink,
        &net.consumer_index(),
        &mut IntervalScratch::default(),
        &mut out,
    );
    GroupRun {
        metrics: out.groups[0].1,
        layers: out.layers,
    }
}

/// The interval loop behind every ISOSceles simulation, traced or not.
///
/// When `sink` is enabled, every member layer becomes one trace unit and
/// every scheduler interval emits one compute event per unit — effectual
/// busy time plus the stall taxonomy, conserving the interval length —
/// and one DRAM event per memory stream. `t0` offsets event timestamps
/// so consecutive groups of a network land on one shared timeline.
/// Tracing only observes the simulation: it reads state the loop keeps
/// either way, so the returned metrics are bit-identical with any sink.
///
/// The group is appended to `out` (totals, group entry and per-layer
/// breakdown); the result is its cycle count. `index` is the network's
/// consumer index, built once per network.
///
/// The scratch is caller-owned, so the network executor pays the group
/// state and interval-buffer allocations once per run instead of once
/// per group. It carries no state between groups (see
/// [`IntervalScratch`]), so the results are bit-identical to a fresh
/// scratch.
///
/// `TRACING` is `sink.enabled()`, fixed at compile time: the loop is
/// one source, and the untraced copy compiles without its `if tracing`
/// branches and sink calls.
#[allow(clippy::too_many_arguments)]
fn simulate_group_into<const TRACING: bool>(
    net: &Network,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    seed: u64,
    t0: u64,
    sink: &mut dyn TraceSink,
    index: &ConsumerIndex,
    sc: &mut IntervalScratch,
    out: &mut NetworkMetrics,
) -> u64 {
    build_group_state(net, cfg, group, seed, index, sc);
    let n = group.layers.len();
    let layers = &mut sc.layers[..n];
    let ext_streams = &mut sc.ext_streams[..];
    let total_macs = cfg.total_macs() as f64;
    let pace = Pace {
        interval: cfg.scheduler_interval,
        capacity: cfg.scheduler_interval as f64 * cfg.pe_efficiency,
        pe_efficiency: cfg.pe_efficiency,
        total_macs,
        inv_total_macs: exact_recip(total_macs),
    };
    let interval = pace.interval;
    let mut mem = MemHarness::new(cfg.dram_bytes_per_cycle);
    let sched = sc
        .sched
        .get_or_insert_with(|| DynamicScheduler::new(total_macs));
    sched.reset();
    let mut metrics = RunMetrics::default();

    let tracing = TRACING;
    debug_assert_eq!(tracing, sink.enabled());
    sc.unit_ids.clear();
    if tracing {
        sc.unit_ids.extend(
            layers
                .iter()
                .map(|l| sink.unit(&l.work.name, UnitKind::Layer)),
        );
    }

    let safety_cycles: u64 = 500_000_000_000;
    let mut stalled_intervals = 0u32;
    // Consumer adjacency, precomputed once: the backpressure scan used to
    // test every (producer, consumer) pair every interval.
    for c in sc.consumers.iter_mut() {
        c.clear();
    }
    if sc.consumers.len() < n {
        sc.consumers.resize_with(n, Vec::new);
    }
    for (j, l) in layers.iter().enumerate() {
        for s in &l.producers {
            if let Source::Local(i) = *s {
                sc.consumers[i].push(j);
            }
        }
    }

    // The live sets (see `IntervalScratch`).
    let f = &mut sc.frame;
    f.grow(n, tracing);
    sc.live.clear();
    sc.weights.clear();
    sc.acts.clear();
    sc.writers.clear();
    let mut unfinished = 0usize;
    for (i, l) in layers.iter().enumerate() {
        let done = l.cols_done >= l.work.out_cols;
        f.done_before[i] = done;
        f.gated[i] = l.weight_left > 0.0;
        f.ready[i] = if done { l.work.out_cols } else { l.cols_done };
        f.demand[i] = 0.0;
        f.unmet[i] = 0.0;
        f.used_per[i] = 0.0;
        if tracing {
            f.r_inputs[i] = 0;
            f.r_bps[i] = usize::MAX;
            f.extra_share[i] = 0.0;
        }
        if !done {
            unfinished += 1;
            if !f.gated[i] {
                sc.live.push(i);
            }
        }
        if l.weight_left > 0.0 {
            sc.weights.push(i, tracing.then(|| sc.unit_ids[i]));
        }
        if l.writes_extern {
            sc.writers.push(i, tracing.then(|| sc.unit_ids[i]));
        }
    }
    for (e, s) in ext_streams.iter().enumerate() {
        if s.fetched_cols < s.cols {
            sc.acts.push(e, tracing.then(|| sc.unit_ids[s.owner]));
        }
    }
    // Whether the next interval posts no DRAM demand, unless a writer
    // completes a column in it.
    let mut quiet = false;
    let prefetch = 8usize;
    loop {
        // 0. Run-ahead. One live member that is also the only one with
        // demand history, against idle memory: until it reaches a column
        // boundary, an interval changes nothing but that member's column
        // progress, the scheduler history and the run totals. Every
        // other term of the full body below is an exact zero there (no
        // other member has demand or a PE share, no requester posts a
        // byte, nothing finishes), so the interval reduces to this
        // recurrence, with the same float operations in the same order.
        // The frontier is fixed meanwhile: every producer and consumer
        // has finished and every stream is fetched.
        let lone = match sc.live.as_slice() {
            &[i] if quiet => sched.lone_history(i, n).map(|h| (i, h)),
            _ => None,
        };
        if let Some((i, mut h)) = lone {
            let c = layers[i].cols_done;
            // The frontier, computed at the first interval that runs.
            let mut ready = None;
            let mut ran = false;
            loop {
                let a = sched.lone_share(n, h);
                let offered = a * pace.capacity;
                // The budget is at most `offered`: one that may finish the
                // column hands back to the full body (the column's
                // writeback and the new frontier need it).
                if offered + 1e-4 >= layers[i].work.macs_per_col[c] - layers[i].col_progress {
                    break;
                }
                let r = *ready.get_or_insert_with(|| {
                    let (r_input, r_bp) = frontier(layers, ext_streams, &sc.consumers, i);
                    let r = r_input.min(r_bp).clamp(c, layers[i].work.out_cols);
                    f.ready[i] = r;
                    if tracing {
                        f.r_inputs[i] = r_input;
                        f.r_bps[i] = r_bp;
                        f.extra_share[i] = 0.0;
                    }
                    r
                });
                let l = &mut layers[i];
                let d = (l.cum_macs[r] - l.cum_macs[c] - l.col_progress).max(0.0);
                let budget = d.min(offered);
                // So do a blocked frontier and a budget too small to count
                // as progress (the stall check needs them). Otherwise
                // `offered - used` and `d - used` are never both positive,
                // so no PEs are redistributed.
                if r <= c || budget <= 1e-9 {
                    break;
                }
                // `advance_layer(l, budget, r)` inside column `c`: all of
                // the budget is used.
                l.col_progress += budget;
                l.macs_executed += budget;
                h = d;
                f.demand[i] = d;
                f.alloc[i] = a;
                f.used_per[i] = budget;
                if tracing {
                    emit_compute_events(sink, layers, f, &sc.unit_ids, t0 + metrics.cycles, pace);
                }
                mem.idle(interval);
                pace.account(&mut metrics, budget);
                assert!(metrics.cycles < safety_cycles, "runaway simulation");
                ran = true;
            }
            if ran {
                sched.record_demand(i, h);
                stalled_intervals = 0;
            }
        }

        let t_start = t0 + metrics.cycles;
        // 1. Wavefront-dependency analysis: how far may each live member
        // run? Finished and weight-gated members keep the values of
        // their last state change (see `Frame`), and the trace snapshots
        // of why (`r_inputs`/`r_bps`) are recorded only when tracing. No
        // state update depends on `tracing`.
        let (ready, demand) = (&mut f.ready[..], &mut f.demand[..]);
        for &i in &sc.live {
            let (r_input, r_bp) = frontier(layers, ext_streams, &sc.consumers, i);
            if tracing {
                f.r_inputs[i] = r_input;
                f.r_bps[i] = r_bp;
            }
            // 2. MAC demand.
            let l = &layers[i];
            let r = r_input.min(r_bp).clamp(l.cols_done, l.work.out_cols);
            ready[i] = r;
            let d = (l.cum_macs[r] - l.cum_macs[l.cols_done] - l.col_progress).max(0.0);
            demand[i] = d;
        }
        sched.allocate_into(&f.demand[..n], &mut f.alloc);
        let mut executed_total = 0.0;
        let mut any_leftover = false;
        let mut any_unmet = false;
        // Whether a member with unmet demand can still advance.
        let mut movable = false;
        // Whether a member finished or its weights arrived.
        let mut changed = false;
        let (ready, demand, alloc) = (&f.ready[..], &f.demand[..], &f.alloc[..]);
        let (used_per, unmet_per) = (&mut f.used_per[..], &mut f.unmet[..]);
        for &i in &sc.live {
            let l = &mut layers[i];
            let (d, r) = (demand[i], ready[i]);
            let offered = alloc[i] * pace.capacity;
            // `advance_layer` with `ready == cols_done` is a strict no-op
            // (zero-MAC columns only auto-advance when `ready` moved past
            // them), so the call is skipped for blocked members.
            let used = if r > l.cols_done {
                advance_layer(l, d.min(offered), r)
            } else {
                0.0
            };
            used_per[i] = used;
            executed_total += used;
            // Every `offered - used` term is >= 0 (`used` never exceeds the
            // `d.min(offered)` budget), so the sign of the leftover sum is
            // just "did any member leave PEs idle" — the division-heavy sum
            // itself is only evaluated when the redistribution pass runs.
            any_leftover |= offered - used > 0.0;
            let unmet = (d - used).max(0.0);
            unmet_per[i] = unmet;
            any_unmet |= unmet > 0.0;
            movable |= unmet > 0.0 && r > l.cols_done;
            changed |= l.cols_done >= l.work.out_cols;
        }
        if tracing {
            f.extra_share[..n].fill(0.0);
        }
        // Work-conserving pass: PEs freed by members whose demand shrank
        // since the last interval pick up queued work from other contexts
        // (the scheduler reallocates shares only every interval, but idle
        // PEs still drain whatever is in their context queues). `unmet`
        // is throttled in place into the extra grants — it has no reader
        // after this pass. With every demand already served the pass is a
        // no-op (throttling zeros and granting nothing), so it is skipped.
        // A member outside the live set uses nothing, so it leaves PEs
        // idle exactly when it holds a share: the full leftover test runs
        // only when a live member has unmet demand and left none. When
        // every member with unmet demand has reached its frontier, the
        // pass moves nothing (`advance_layer` at `ready == cols_done` is a
        // no-op) and only records the extra shares the trace reads.
        if any_unmet
            && (movable || tracing)
            && (any_leftover
                || f.alloc
                    .iter()
                    .zip(&f.used_per)
                    .any(|(&a, &u)| a * pace.capacity - u > 0.0))
        {
            // Rebuilt exactly as the advance loop used to accumulate it:
            // same terms, same left-to-right order, so the redistributed
            // budget is bit-identical. `a * capacity` re-rounds to the
            // same `offered` the advance loop saw.
            let mut leftover_pes = 0.0;
            for (&a, &u) in f.alloc.iter().zip(&f.used_per) {
                leftover_pes += (a * pace.capacity - u) / pace.capacity;
            }
            throttle(&mut f.unmet[..n], leftover_pes * pace.capacity);
            for &i in &sc.live {
                if f.unmet[i] > 0.0 {
                    let l = &mut layers[i];
                    let used = advance_layer(l, f.unmet[i], f.ready[i]);
                    f.used_per[i] += used;
                    executed_total += used;
                    changed |= l.cols_done >= l.work.out_cols;
                    if tracing {
                        f.extra_share[i] = f.unmet[i];
                    }
                }
            }
        }

        // 3. DRAM: weight fetches, input prefetch, output writeback, all
        // through the shared memory harness (demand → grant → throttle →
        // accumulate), posted straight from layer state and granted in
        // place. Weight streams first (same order every interval), then
        // the external input streams, prefetching a few columns ahead of
        // the consumers (the decoupled fetcher FSMs of Sec. IV-A). Each
        // stream is tagged with the trace unit of the layer it serves.
        // Only requesters that can demand bytes are posted: the others'
        // zeros are identities in every sum and product of the step, and
        // a zero request emits no trace event.
        sc.weights.post(|i| layers[i].weight_left);
        sc.acts.post(|e| {
            let s = &mut ext_streams[e];
            s.remaining_bytes(&layers[s.owner].work.in_bytes_per_col, prefetch)
        });
        let mut writing = false;
        sc.writers.post(|i| {
            let w = layers[i].produced_bytes - layers[i].written_bytes;
            writing |= w != 0.0;
            w
        });
        let (granted_read, granted_write) =
            if sc.weights.is_empty() && sc.acts.is_empty() && !writing {
                // Nothing posted: a step over all-zero demand.
                mem.idle(interval);
                (0.0, 0.0)
            } else {
                if tracing {
                    // One compute event per layer plus at most one DRAM
                    // event per posted requester this interval; reserving
                    // up front keeps the sink from growing its buffer
                    // mid-stream.
                    sink.hint_events(
                        n + sc.weights.idx.len() + sc.acts.idx.len() + sc.writers.idx.len(),
                    );
                }
                let tags = DramTags {
                    t: t_start,
                    weights: &sc.weights.units,
                    acts: &sc.acts.units,
                    writes: &sc.writers.units,
                };
                mem.step(
                    &mut sc.weights.bytes,
                    &mut sc.acts.bytes,
                    &mut sc.writers.bytes,
                    interval,
                    tracing.then_some((tags, &mut *sink)),
                )
            };
        // Apply the grants: weights (a stream whose bytes are all in
        // leaves its set and ungates its layer), the writeback (one
        // writer per layer, distributed proportionally across sinks),
        // then the input streams.
        sc.weights.settle(|i, g| {
            let l = &mut layers[i];
            l.weight_left = (l.weight_left - g).max(0.0);
            l.weight_streamed += g;
            changed |= l.weight_left <= 0.0;
            l.weight_left > 0.0
        });
        let mut drained = true;
        quiet = true;
        for (&i, &w) in sc.writers.idx.iter().zip(&sc.writers.bytes) {
            let l = &mut layers[i];
            l.written_bytes += w;
            let pending = l.produced_bytes - l.written_bytes;
            drained &= pending < 1.0;
            quiet &= pending == 0.0;
        }
        sc.acts.settle(|e, g| {
            let s = &mut ext_streams[e];
            s.advance(&layers[s.owner].work.in_bytes_per_col, g);
            s.granted += g;
            s.fetched_cols < s.cols
        });
        quiet &= sc.weights.is_empty() && sc.acts.is_empty();

        if tracing {
            emit_compute_events(sink, layers, f, &sc.unit_ids, t_start, pace);
        }
        // State changes, after the trace has read the interval's
        // snapshot: a member that finished leaves the live set with zero
        // demand, and one whose weights arrived joins it. That happens
        // at most twice per member, so the rebuild walks the group.
        if changed {
            sc.live.clear();
            for (i, l) in layers.iter().enumerate() {
                if !f.done_before[i] && l.cols_done >= l.work.out_cols {
                    f.done_before[i] = true;
                    f.ready[i] = l.work.out_cols;
                    f.demand[i] = 0.0;
                    f.used_per[i] = 0.0;
                    f.unmet[i] = 0.0;
                    unfinished -= 1;
                }
                f.gated[i] = l.weight_left > 0.0;
                if !f.done_before[i] && !f.gated[i] {
                    sc.live.push(i);
                }
            }
        }

        // 4. Bookkeeping.
        pace.account(&mut metrics, executed_total);
        if unfinished == 0 && drained {
            break;
        }
        // The proportional scheduler follows the *previous* interval's
        // demand, so a layer that just became ready legitimately idles for
        // one interval (the fragmentation loss of Sec. VI-B). Only a
        // sustained stall is a model bug.
        let moved = executed_total > 1e-9 || granted_read > 1e-6 || granted_write > 1e-6;
        stalled_intervals = if moved { 0 } else { stalled_intervals + 1 };
        assert!(
            stalled_intervals <= 3,
            "pipeline deadlock in group {}: ready {:?} demand {:?} layers {:?} ext {:?}",
            group.name,
            &f.ready[..n],
            &f.demand[..n],
            layers
                .iter()
                .map(|l| (
                    l.work.name.clone(),
                    l.cols_done,
                    l.work.out_cols,
                    l.weight_left
                ))
                .collect::<Vec<_>>(),
            ext_streams
                .iter()
                .map(|s| (s.fetched_cols, s.cols, s.byte_progress))
                .collect::<Vec<_>>()
        );
        assert!(metrics.cycles < safety_cycles, "runaway simulation");
    }

    mem.finish(&mut metrics);
    // Each MAC reads one weight byte from the shared filter buffer
    // (amortized over wide words) and read-modify-writes a 16-bit partial
    // in the lane-local context array.
    let local_bytes_per_mac = 2.0 * cfg.accumulator_bytes() as f64;
    metrics.charge_compute_activity(metrics.effectual_macs, local_bytes_per_mac);

    // Per-layer breakdown (see `GroupSplit`). The interval loop
    // attributes traffic to the stream that moved it; each layer owns its
    // weight stream, its writeback and the external streams it consumes.
    for s in ext_streams.iter() {
        layers[s.owner].acts_read += s.granted;
    }
    sc.split.clear();
    for l in layers.iter() {
        sc.split.push(LayerPart {
            weight_bytes: l.weight_streamed,
            act_in: l.acts_read,
            act_out: l.written_bytes,
            macs: l.macs_executed,
        });
    }
    let names = layers.iter().map(|l| l.work.name.clone());
    let breakdown = sc.split.breakdown(&metrics, local_bytes_per_mac, names);
    out.push_group(group.name.clone(), metrics, breakdown);
    metrics.cycles
}

/// The input frontier and the backpressure bound of member `i`: how many
/// output columns its producers allow, and how far it may run past its
/// slowest in-group consumer (`usize::MAX` with none left). The common
/// single-producer / single-consumer shapes dodge the iterator
/// reductions.
#[inline(always)]
fn frontier(
    layers: &[SimLayer],
    ext_streams: &[ExtStream],
    consumers: &[Vec<usize>],
    i: usize,
) -> (usize, usize) {
    let l = &layers[i];
    let avail_in = match l.producers.as_slice() {
        &[Source::Local(j)] => layers[j].cols_done,
        &[Source::External(e)] => ext_streams[e].fetched_cols,
        ps => ps
            .iter()
            .map(|s| match *s {
                Source::External(e) => ext_streams[e].fetched_cols,
                Source::Local(j) => layers[j].cols_done,
            })
            .min()
            .unwrap_or(l.work.in_cols),
    };
    let r_input = max_out_cols(&l.work, avail_in);
    // Backpressure: don't run more than `ahead_cols` past the slowest
    // in-group consumer.
    let r_bp = match consumers[i].as_slice() {
        &[] => usize::MAX,
        &[j] => {
            let c = &layers[j];
            if c.cols_done >= c.work.out_cols {
                usize::MAX
            } else {
                (c.cols_done * c.work.stride).saturating_add(l.ahead_cols)
            }
        }
        cs => {
            let mut r_bp = usize::MAX;
            for &j in cs {
                let consumed = if layers[j].cols_done >= layers[j].work.out_cols {
                    usize::MAX
                } else {
                    layers[j].cols_done * layers[j].work.stride
                };
                r_bp = r_bp.min(consumed.saturating_add(l.ahead_cols));
            }
            r_bp
        }
    };
    (r_input, r_bp)
}

/// Per-unit occupancy attribution for one interval: one compute event
/// per member layer. Pure observation of the state the simulation
/// already computed: busy is the effectual share of the PE time each
/// context was offered, the intersection/merge inefficiency
/// (`1 - pe_efficiency`) and scheduler-lag contention land on
/// `MergeBound`, and idle time is classified by *why* the context could
/// not run (weights still streaming, upstream wavefront missing,
/// downstream queue budget, or writeback drain).
fn emit_compute_events(
    sink: &mut dyn TraceSink,
    layers: &[SimLayer],
    f: &Frame,
    units: &[UnitId],
    t: u64,
    pace: Pace,
) {
    let t_f = pace.interval as f64;
    for (i, l) in layers.iter().enumerate() {
        let wb_now = l.writes_extern && l.produced_bytes - l.written_bytes >= 1.0;
        let mut busy = 0.0;
        let mut stalls = [0.0f64; 4];
        if f.done_before[i] {
            // Compute finished in an earlier interval: the context is
            // either draining writeback or simply drained.
            let k = if wb_now {
                StallKind::DramThrottled
            } else {
                StallKind::InputStarved
            };
            stalls[k.index()] = t_f;
        } else if f.gated[i] {
            // Weights still streaming from DRAM gate all issue.
            stalls[StallKind::DramThrottled.index()] = t_f;
        } else {
            let offered = f.alloc[i] * pace.capacity + f.extra_share[i];
            let active = if offered > 1e-9 {
                (f.used_per[i] / offered).min(1.0) * t_f
            } else {
                0.0
            };
            busy = active * pace.pe_efficiency;
            stalls[StallKind::MergeBound.index()] += active - busy;
            let idle = t_f - active;
            if idle > 0.0 {
                let k = if f.demand[i] - f.used_per[i] > 1e-9 {
                    // Ready work left unserved: shared-array contention /
                    // scheduler-interval lag.
                    StallKind::MergeBound
                } else if f.ready[i] >= l.work.out_cols {
                    // Finished mid-interval.
                    if wb_now {
                        StallKind::DramThrottled
                    } else {
                        StallKind::InputStarved
                    }
                } else if f.r_bps[i] < f.r_inputs[i] {
                    StallKind::OutputBlocked
                } else {
                    StallKind::InputStarved
                };
                stalls[k.index()] += idle;
            }
        }
        sink.emit(TraceEvent::Compute {
            unit: units[i],
            t,
            cycles: pace.interval,
            busy,
            stalls,
        });
    }
}

/// Simulates a whole network: maps it into groups and runs them in order
/// on the shared IS-OS block.
///
/// This is the mode-parameterized core behind the
/// [`Accelerator`](crate::accel::Accelerator) impls; callers that just
/// want "run this model" should go through the trait instead.
pub fn run_network(
    net: &Network,
    cfg: &IsoscelesConfig,
    mode: ExecMode,
    seed: u64,
) -> NetworkMetrics {
    let mapping = map_network(net, cfg, mode);
    simulate_mapping(net, cfg, &mapping, seed)
}

/// [`run_network`] with trace emission (see [`simulate_mapping_traced`]).
pub fn run_network_traced(
    net: &Network,
    cfg: &IsoscelesConfig,
    mode: ExecMode,
    seed: u64,
    sink: &mut dyn TraceSink,
) -> NetworkMetrics {
    let mapping = map_network(net, cfg, mode);
    simulate_mapping_traced(net, cfg, &mapping, seed, sink)
}

/// Simulates a network under a precomputed mapping.
pub fn simulate_mapping(
    net: &Network,
    cfg: &IsoscelesConfig,
    mapping: &Mapping,
    seed: u64,
) -> NetworkMetrics {
    simulate_mapping_traced(net, cfg, mapping, seed, &mut NullSink)
}

/// [`simulate_mapping`] with trace emission. Every member layer of a
/// group becomes one trace unit; every scheduler interval emits one
/// compute event per unit (effectual busy time plus the stall taxonomy,
/// conserving the interval length) and one DRAM event per memory stream.
/// Groups run in mapping order on the shared IS-OS block, so each group's
/// events start where the previous group's cycles ended and the whole
/// network lands on one timeline. Tracing only observes the simulation:
/// the metrics are bit-identical with any sink.
pub fn simulate_mapping_traced(
    net: &Network,
    cfg: &IsoscelesConfig,
    mapping: &Mapping,
    seed: u64,
    sink: &mut dyn TraceSink,
) -> NetworkMetrics {
    let mut out = NetworkMetrics {
        groups: Vec::with_capacity(mapping.groups.len()),
        layers: Vec::with_capacity(mapping.groups.iter().map(|g| g.layers.len()).sum()),
        ..Default::default()
    };
    let index = net.consumer_index();
    let mut t0 = 0u64;
    let mut sc = IntervalScratch::default();
    for group in &mapping.groups {
        t0 += if sink.enabled() {
            simulate_group_into::<true>(net, cfg, group, seed, t0, sink, &index, &mut sc, &mut out)
        } else {
            simulate_group_into::<false>(net, cfg, group, seed, t0, sink, &index, &mut sc, &mut out)
        };
    }
    out
}

/// Largest output-column count producible from `avail_in` input columns.
fn max_out_cols(work: &LayerWork, avail_in: usize) -> usize {
    if avail_in >= work.in_cols {
        return work.out_cols;
    }
    if avail_in < work.s_kernel {
        return 0;
    }
    let lead = avail_in - work.s_kernel;
    // Unit stride — the overwhelmingly common case — skips the integer
    // division (a ~20-cycle instruction in a loop that runs per layer
    // per interval); `lead / 1 == lead` exactly.
    let cols = if work.stride == 1 {
        lead
    } else {
        lead / work.stride
    };
    (cols + 1).min(work.out_cols)
}

/// Spends `budget` MACs advancing columns up to `ready`; returns MACs
/// actually consumed.
fn advance_layer(layer: &mut SimLayer, budget: f64, ready: usize) -> f64 {
    let mut left = budget;
    let mut used = 0.0;
    while layer.cols_done < ready {
        let col = layer.cols_done;
        let need = layer.work.macs_per_col[col] - layer.col_progress;
        // The 1e-4 slack absorbs float drift between the prefix-sum demand
        // and the per-column values (a 1e-4 MAC is far below model noise).
        if left + 1e-4 >= need {
            left -= need;
            used += need.max(0.0);
            layer.col_progress = 0.0;
            layer.cols_done += 1;
            layer.produced_bytes += layer.work.out_bytes_per_col[col];
        } else {
            layer.col_progress += left;
            used += left;
            break;
        }
    }
    layer.macs_executed += used;
    used
}

/// Builds the simulation state for one group in the scratch's pools:
/// `sc.layers[..n]` for its `n` members and `sc.ext_streams`, every
/// field rewritten.
fn build_group_state(
    net: &Network,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    seed: u64,
    index: &ConsumerIndex,
    sc: &mut IntervalScratch,
) {
    // Groups hold at most a handful of layers, so membership lookups are
    // linear scans rather than hash maps (hashing costs more than the
    // scan at this size, and this runs once per group per simulation).
    let local_index = |id: NodeId| group.layers.iter().position(|&l| l == id);
    let n = group.layers.len();
    if sc.layers.len() < n {
        sc.layers.resize_with(n, SimLayer::default);
    }
    let ext_streams = &mut sc.ext_streams;
    let ext_ids = &mut sc.ext_ids;
    ext_streams.clear();
    ext_ids.clear();

    // Decoupling depth floor, shared by every member: it must exceed the
    // longest pipeline lag inside the group (a skip connection's queue
    // buffers the whole main branch's wavefront lag, Sec. IV-A /
    // Fig. 13), or the group livelocks.
    let min_ahead: usize = 1 + group
        .layers
        .iter()
        .map(|&j| net.layer(j).kind.kernel().1)
        .sum::<usize>();

    for (owner, (&id, l)) in group.layers.iter().zip(&mut sc.layers).enumerate() {
        let layer = net.layer(id);
        layer_work_into(
            layer,
            seed ^ (id as u64).wrapping_mul(0x9E37_79B9),
            &mut l.work,
        );
        let work = &l.work;
        let (r_kernel, _) = layer.kind.kernel();
        // Traffic multipliers for this layer's external input: K-tiling
        // re-reads the input per tile; P-tiling re-reads halo rows at each
        // tile boundary (Sec. IV-C).
        let halo_frac = if group.p_tiles > 1 && layer.input.h > 0 {
            ((group.p_tiles - 1) * r_kernel.saturating_sub(1)) as f64 / layer.input.h as f64
        } else {
            0.0
        };
        let scale = group.k_tiles as f64 * (1.0 + halo_frac);

        let inputs = &net.nodes()[id].inputs;
        let mut ext_stream_for = |key: NodeId| -> usize {
            if let Some(e) = ext_ids.iter().position(|&k| k == key) {
                return e;
            }
            ext_streams.push(ExtStream {
                cols: work.in_bytes_per_col.len(),
                fetched_cols: 0,
                byte_progress: 0.0,
                scale,
                owner,
                granted: 0.0,
                window_at: usize::MAX,
                window: 0.0,
            });
            ext_ids.push(key);
            ext_streams.len() - 1
        };
        l.producers.clear();
        if inputs.is_empty() {
            // Network input: one stream shaped like this layer's input.
            l.producers
                .push(Source::External(ext_stream_for(id + 1_000_000)));
        }
        for &p in inputs {
            l.producers.push(match local_index(p) {
                Some(j) => Source::Local(j),
                None => Source::External(ext_stream_for(p)),
            });
        }

        // Decoupling depth from the per-lane queue budget, floored at the
        // group-wide `min_ahead`.
        let rows = work.out_rows.max(1) as f64;
        let mean_col_bytes = (work.out_csf_bytes() / work.out_cols.max(1) as f64 / rows).max(1.0);
        let ahead_cols =
            ((cfg.queue_bytes_per_lane as f64 / mean_col_bytes) as usize).clamp(min_ahead, 128);

        l.cum_macs.clear();
        let mut am = 0.0;
        l.cum_macs.push(0.0);
        for &macs in &work.macs_per_col {
            am += macs;
            l.cum_macs.push(am);
        }
        // Rebuilt as a literal around its refilled buffers, so no field
        // can keep the previous group's value.
        *l = SimLayer {
            weight_left: l.work.weight_csf_bytes,
            work: std::mem::take(&mut l.work),
            cum_macs: std::mem::take(&mut l.cum_macs),
            producers: std::mem::take(&mut l.producers),
            writes_extern: index.written_off_chip(id, &group.layers),
            weight_streamed: 0.0,
            acts_read: 0.0,
            cols_done: 0,
            col_progress: 0.0,
            produced_bytes: 0.0,
            written_bytes: 0.0,
            macs_executed: 0.0,
            ahead_cols,
        };
    }
}
