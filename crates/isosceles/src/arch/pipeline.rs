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
use isos_nn::graph::{Network, NodeId};
use isos_nn::work::{layer_work, LayerWork};
use isos_sim::dram::{exact_recip, throttle};
use isos_sim::harness::{DramTags, MemHarness};
use isos_sim::metrics::{apportion_capped, apportion_cycles, NetworkMetrics, RunMetrics};
use isos_sim::stats::Utilization;
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
#[derive(Debug)]
struct SimLayer {
    work: LayerWork,
    /// Prefix sums of `macs_per_col` for O(1) demand queries.
    cum_macs: Vec<f64>,
    producers: Vec<Source>,
    writes_extern: bool,
    weight_left: f64,
    /// Weight bytes granted so far (per-layer traffic attribution).
    weight_streamed: f64,
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
}

impl ExtStream {
    fn remaining_bytes_to(&self, bytes_per_col: &[f64], target_col: usize) -> f64 {
        let target = target_col.min(bytes_per_col.len());
        if self.fetched_cols >= target {
            return 0.0;
        }
        let raw: f64 = bytes_per_col[self.fetched_cols..target].iter().sum();
        let rem = raw * self.scale - self.byte_progress;
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

/// Buffers reused across every interval of one group simulation.
///
/// The interval loop used to allocate a dozen short `Vec`s per interval;
/// at sub-microsecond interval cost those allocations *were* the
/// simulation time. One scratch set lives for the whole group instead,
/// sized once to the member count, and every interval overwrites it in
/// place — the loop body itself never touches the heap.
#[derive(Default)]
struct IntervalScratch {
    ready: Vec<usize>,
    r_inputs: Vec<usize>,
    r_bps: Vec<usize>,
    gated: Vec<bool>,
    done_before: Vec<bool>,
    demand: Vec<f64>,
    alloc: Vec<f64>,
    unmet: Vec<f64>,
    used_per: Vec<f64>,
    extra_share: Vec<f64>,
    /// Memory demand, granted in place by [`MemHarness::step`]: per-layer
    /// weight demand, per-external-stream activation demand and per-layer
    /// writeback.
    weight_reads: Vec<f64>,
    act_reads: Vec<f64>,
    write_pending: Vec<f64>,
    /// Consumer adjacency (who reads layer `i`'s output), rebuilt per
    /// group; the inner vectors keep their allocations across groups.
    consumers: Vec<Vec<usize>>,
    /// Trace unit ids per member layer, and per external stream (its
    /// owner's), rebuilt per group.
    unit_ids: Vec<UnitId>,
    stream_units: Vec<UnitId>,
}

/// Resets a pooled buffer to `n` copies of `fill`, discarding whatever a
/// previous group left behind (the clear makes reuse indistinguishable
/// from a fresh allocation).
fn clear_resize<T: Clone>(buf: &mut Vec<T>, n: usize, fill: T) {
    buf.clear();
    buf.resize(n, fill);
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
    simulate_group_into(
        net,
        cfg,
        group,
        seed,
        0,
        &mut NullSink,
        &mut IntervalScratch::default(),
    )
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
/// The scratch is caller-owned, so the network executor pays the
/// interval-buffer allocations once per run instead of once per group.
/// It carries no state between groups — every buffer is cleared and
/// rebuilt — so the results are bit-identical to a fresh scratch.
fn simulate_group_into(
    net: &Network,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    seed: u64,
    t0: u64,
    sink: &mut dyn TraceSink,
    sc: &mut IntervalScratch,
) -> GroupRun {
    let (mut layers, mut ext_streams) = build_group_state(net, cfg, group, seed);
    let interval = cfg.scheduler_interval;
    let total_macs = cfg.total_macs() as f64;
    let mut mem = MemHarness::new(cfg.dram_bytes_per_cycle);
    let mut sched = DynamicScheduler::new(total_macs);
    let mut metrics = RunMetrics::default();

    let tracing = sink.enabled();
    sc.unit_ids.clear();
    sc.unit_ids.extend(
        layers
            .iter()
            .map(|l| sink.unit(&l.work.name, UnitKind::Layer)),
    );
    sc.stream_units.clear();
    sc.stream_units
        .extend(ext_streams.iter().map(|s| sc.unit_ids[s.owner]));

    let safety_cycles: u64 = 500_000_000_000;
    let mut stalled_intervals = 0u32;
    let n = layers.len();
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
    clear_resize(&mut sc.ready, n, 0);
    clear_resize(&mut sc.r_inputs, n, 0);
    clear_resize(&mut sc.r_bps, n, usize::MAX);
    clear_resize(&mut sc.gated, n, false);
    clear_resize(&mut sc.done_before, n, false);
    clear_resize(&mut sc.demand, n, 0.0);
    clear_resize(&mut sc.unmet, n, 0.0);
    clear_resize(&mut sc.used_per, n, 0.0);
    clear_resize(&mut sc.extra_share, n, 0.0);
    clear_resize(&mut sc.write_pending, n, 0.0);
    clear_resize(&mut sc.weight_reads, n, 0.0);
    clear_resize(&mut sc.act_reads, ext_streams.len(), 0.0);
    let interval_capacity = interval as f64 * cfg.pe_efficiency;
    // Table I's 4096 MACs are a power of two, so the per-interval
    // utilization ratio can use a multiply (see `exact_recip`).
    let inv_total_macs = exact_recip(total_macs);
    loop {
        let t_start = t0 + metrics.cycles;
        // 1. Wavefront-dependency analysis: how far may each layer run?
        // `done_before`/`gated`/`r_inputs`/`r_bps` snapshot why, for the
        // stall attribution below. Only the trace block reads them, so
        // they (and `extra_share`) are recorded only when tracing: the
        // writes alone cost about 6% of an untraced simulation. No state
        // update depends on `tracing`. The trace block branches on `done_before`, then
        // `gated`, first, so finished and weight-gated layers skip the
        // producer/consumer scans. A finished layer demands nothing; a
        // gated one stays at `cols_done`, where `cum[c] - cum[c]` is
        // exactly +0.0 (finite operands), so its demand is
        // `(0.0 - progress).max(0.0)`. The common single-producer /
        // single-consumer shapes dodge the iterator reductions.
        for i in 0..n {
            let l = &layers[i];
            let done = l.cols_done >= l.work.out_cols;
            let gated = l.weight_left > 0.0;
            if tracing {
                sc.done_before[i] = done;
                sc.gated[i] = gated;
            }
            if done {
                sc.ready[i] = l.work.out_cols;
                sc.demand[i] = 0.0;
                continue;
            }
            if gated {
                sc.ready[i] = l.cols_done;
                sc.demand[i] = (0.0 - l.col_progress).max(0.0);
                continue;
            }
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
            // Backpressure: don't run more than `ahead_cols` past the
            // slowest in-group consumer.
            let r_bp = match sc.consumers[i].as_slice() {
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
            if tracing {
                sc.r_inputs[i] = r_input;
                sc.r_bps[i] = r_bp;
            }
            // 2. MAC demand.
            let r = r_input.min(r_bp).clamp(l.cols_done, l.work.out_cols);
            sc.ready[i] = r;
            sc.demand[i] = (l.cum_macs[r] - l.cum_macs[l.cols_done] - l.col_progress).max(0.0);
        }
        sched.allocate_into(&sc.demand, &mut sc.alloc);
        let mut executed_total = 0.0;
        let mut any_leftover = false;
        let mut any_unmet = false;
        for (((((l, &d), &a), &r), u), um) in layers
            .iter_mut()
            .zip(&sc.demand)
            .zip(&sc.alloc)
            .zip(&sc.ready)
            .zip(&mut sc.used_per)
            .zip(&mut sc.unmet)
        {
            let offered = a * interval_capacity;
            // `advance_layer` with `ready == cols_done` is a strict no-op
            // (zero-MAC columns only auto-advance when `ready` moved past
            // them), so the call is skipped for idle and finished layers.
            let used = if r > l.cols_done {
                advance_layer(l, d.min(offered), r)
            } else {
                0.0
            };
            *u = used;
            executed_total += used;
            // Every `offered - used` term is >= 0 (`used` never exceeds the
            // `d.min(offered)` budget), so the sign of the leftover sum is
            // just "did any layer leave PEs idle" — the division-heavy sum
            // itself is only evaluated when the redistribution pass runs.
            any_leftover |= offered - used > 0.0;
            let unmet = (d - used).max(0.0);
            *um = unmet;
            any_unmet |= unmet > 0.0;
        }
        if tracing {
            sc.extra_share.fill(0.0);
        }
        // Work-conserving pass: PEs freed by layers whose demand shrank
        // since the last interval pick up queued work from other contexts
        // (the scheduler reallocates shares only every interval, but idle
        // PEs still drain whatever is in their context queues). `unmet`
        // is throttled in place into the extra grants — it has no reader
        // after this pass. With every demand already served the pass is a
        // no-op (throttling zeros and granting nothing), so it is skipped.
        if any_leftover && any_unmet {
            // Rebuilt exactly as the advance loop used to accumulate it:
            // same terms, same left-to-right order, so the redistributed
            // budget is bit-identical. `a * interval_capacity` re-rounds to
            // the same `offered` the advance loop saw.
            let mut leftover_pes = 0.0;
            for (&a, &u) in sc.alloc.iter().zip(&sc.used_per) {
                leftover_pes += (a * interval_capacity - u) / interval_capacity;
            }
            throttle(&mut sc.unmet, leftover_pes * interval_capacity);
            for (i, l) in layers.iter_mut().enumerate() {
                if sc.unmet[i] > 0.0 {
                    let used = advance_layer(l, sc.unmet[i], sc.ready[i]);
                    sc.used_per[i] += used;
                    executed_total += used;
                    if tracing {
                        sc.extra_share[i] = sc.unmet[i];
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
        let prefetch = 8usize;
        for ((l, wr), wp) in layers
            .iter()
            .zip(&mut sc.weight_reads)
            .zip(&mut sc.write_pending)
        {
            *wr = l.weight_left;
            *wp = if l.writes_extern {
                l.produced_bytes - l.written_bytes
            } else {
                0.0
            };
        }
        for (s, ar) in ext_streams.iter().zip(&mut sc.act_reads) {
            *ar = s.remaining_bytes_to(
                &layers[s.owner].work.in_bytes_per_col,
                s.fetched_cols + prefetch,
            );
        }
        if tracing {
            // One compute event per layer plus at most one DRAM event per
            // memory stream this interval; reserving up front keeps the
            // sink from growing its buffer mid-stream.
            sink.hint_events(n + n + ext_streams.len() + n);
        }
        let tags = DramTags {
            t: t_start,
            weights: &sc.unit_ids,
            acts: &sc.stream_units,
            writes: &sc.unit_ids,
        };
        let (granted_read, granted_write) = mem.step(
            &mut sc.weight_reads,
            &mut sc.act_reads,
            &mut sc.write_pending,
            interval,
            tracing.then_some((tags, &mut *sink)),
        );
        // One fused pass applies the weight grants and the writeback (one
        // writer per layer, distributed proportionally across sinks) and
        // computes the termination check on the resulting state — the
        // value is unchanged from checking after the trace block, which
        // only observes.
        let mut all_done = true;
        for ((l, &g), &w) in layers
            .iter_mut()
            .zip(&sc.weight_reads)
            .zip(&sc.write_pending)
        {
            l.weight_left = (l.weight_left - g).max(0.0);
            l.weight_streamed += g;
            l.written_bytes += w;
            all_done &= l.cols_done >= l.work.out_cols
                && (!l.writes_extern || l.produced_bytes - l.written_bytes < 1.0);
        }
        for (s, &g) in ext_streams.iter_mut().zip(&sc.act_reads) {
            s.advance(&layers[s.owner].work.in_bytes_per_col, g);
            s.granted += g;
        }

        // Per-unit occupancy attribution for this interval. Pure
        // observation of the state the simulation already computed: busy
        // is the effectual share of the PE time each context was offered,
        // the intersection/merge inefficiency (`1 - pe_efficiency`) and
        // scheduler-lag contention land on `MergeBound`, and idle time is
        // classified by *why* the context could not run (weights still
        // streaming, upstream wavefront missing, downstream queue budget,
        // or writeback drain).
        if tracing {
            let t_f = interval as f64;
            for (i, l) in layers.iter().enumerate() {
                let wb_now = l.writes_extern && l.produced_bytes - l.written_bytes >= 1.0;
                let mut busy = 0.0;
                let mut stalls = [0.0f64; 4];
                if sc.done_before[i] {
                    // Compute finished in an earlier interval: the context
                    // is either draining writeback or simply drained.
                    let k = if wb_now {
                        StallKind::DramThrottled
                    } else {
                        StallKind::InputStarved
                    };
                    stalls[k.index()] = t_f;
                } else if sc.gated[i] {
                    // Weights still streaming from DRAM gate all issue.
                    stalls[StallKind::DramThrottled.index()] = t_f;
                } else {
                    let offered = sc.alloc[i] * interval_capacity + sc.extra_share[i];
                    let active = if offered > 1e-9 {
                        (sc.used_per[i] / offered).min(1.0) * t_f
                    } else {
                        0.0
                    };
                    busy = active * cfg.pe_efficiency;
                    stalls[StallKind::MergeBound.index()] += active - busy;
                    let idle = t_f - active;
                    if idle > 0.0 {
                        let k = if sc.demand[i] - sc.used_per[i] > 1e-9 {
                            // Ready work left unserved: shared-array
                            // contention / scheduler-interval lag.
                            StallKind::MergeBound
                        } else if sc.ready[i] >= l.work.out_cols {
                            // Finished mid-interval.
                            if wb_now {
                                StallKind::DramThrottled
                            } else {
                                StallKind::InputStarved
                            }
                        } else if sc.r_bps[i] < sc.r_inputs[i] {
                            StallKind::OutputBlocked
                        } else {
                            StallKind::InputStarved
                        };
                        stalls[k.index()] += idle;
                    }
                }
                sink.emit(TraceEvent::Compute {
                    unit: sc.unit_ids[i],
                    t: t_start,
                    cycles: interval,
                    busy,
                    stalls,
                });
            }
        }

        // 4. Bookkeeping.
        metrics.cycles += interval;
        let mac_ratio = match inv_total_macs {
            Some(inv) => executed_total * inv,
            None => executed_total / total_macs,
        };
        metrics.mac_util.add(mac_ratio, interval);
        metrics.effectual_macs += executed_total;

        if all_done {
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
            sc.ready,
            sc.demand,
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

    // Per-layer breakdown. The interval loop attributes traffic to the
    // stream that moved it; cycles (a group-shared resource) are
    // apportioned by each layer's executed MACs, and the group's busy
    // MAC/DRAM time by each layer's share of its MACs/traffic —
    // water-filled against the layer's own cycles so clamping cannot
    // drop busy mass and the breakdown still sums to the group totals.
    let macs_per_layer: Vec<f64> = layers.iter().map(|l| l.macs_executed).collect();
    let layer_cycles = apportion_cycles(metrics.cycles, &macs_per_layer);
    let caps: Vec<f64> = layer_cycles.iter().map(|&c| c as f64).collect();
    let mut ext_read = vec![0.0f64; layers.len()];
    for s in &ext_streams {
        ext_read[s.owner] += s.granted;
    }
    let traffic_per_layer: Vec<f64> = layers
        .iter()
        .zip(&ext_read)
        .map(|(l, &acts_in)| l.weight_streamed + acts_in + l.written_bytes)
        .collect();
    let mac_busy = apportion_capped(metrics.mac_util.busy(), &macs_per_layer, &caps);
    let bw_busy = apportion_capped(metrics.bw_util.busy(), &traffic_per_layer, &caps);
    let per_layer: Vec<(String, RunMetrics)> = layers
        .iter_mut()
        .zip(&layer_cycles)
        .zip(&ext_read)
        .enumerate()
        .map(|(i, ((l, &cycles), &acts_in))| {
            let mut m = RunMetrics {
                cycles,
                weight_traffic: l.weight_streamed,
                act_traffic: acts_in + l.written_bytes,
                effectual_macs: l.macs_executed,
                ..Default::default()
            };
            m.mac_util = Utilization::new();
            m.mac_util.add(mac_busy[i], cycles);
            m.bw_util = Utilization::new();
            m.bw_util.add(bw_busy[i], cycles);
            m.activity.dram_bytes = m.total_traffic();
            m.charge_compute_activity(l.macs_executed, local_bytes_per_mac);
            // The layer state dies with this function; hand its name
            // to the breakdown instead of cloning the string.
            (std::mem::take(&mut l.work.name), m)
        })
        .collect();
    GroupRun {
        metrics,
        layers: per_layer,
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
    let mut out = NetworkMetrics::default();
    let mut t0 = 0u64;
    let mut sc = IntervalScratch::default();
    for group in &mapping.groups {
        let run = simulate_group_into(net, cfg, group, seed, t0, sink, &mut sc);
        t0 += run.metrics.cycles;
        out.push_group(group.name.clone(), run.metrics, run.layers);
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

/// Builds the simulation state for one group.
fn build_group_state(
    net: &Network,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    seed: u64,
) -> (Vec<SimLayer>, Vec<ExtStream>) {
    // Groups hold at most a handful of layers, so membership lookups are
    // linear scans rather than hash maps (hashing costs more than the
    // scan at this size, and this runs once per group per simulation).
    let local_index = |id: NodeId| group.layers.iter().position(|&l| l == id);
    let mut ext_streams: Vec<ExtStream> = Vec::new();
    let mut ext_ids: Vec<NodeId> = Vec::new();
    let mut layers: Vec<SimLayer> = Vec::with_capacity(group.layers.len());

    // Decoupling depth floor, shared by every member: it must exceed the
    // longest pipeline lag inside the group (a skip connection's queue
    // buffers the whole main branch's wavefront lag, Sec. IV-A /
    // Fig. 13), or the group livelocks.
    let min_ahead: usize = 1 + group
        .layers
        .iter()
        .map(|&j| net.layer(j).kind.kernel().1)
        .sum::<usize>();

    for &id in &group.layers {
        let layer = net.layer(id);
        let work = layer_work(layer, seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
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
        let owner = layers.len();
        let mut producers: Vec<Source> = Vec::new();
        let mut ext_stream_for = |key: NodeId, work: &LayerWork| -> usize {
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
            });
            ext_ids.push(key);
            ext_streams.len() - 1
        };
        if inputs.is_empty() {
            // Network input: one stream shaped like this layer's input.
            let e = ext_stream_for(id + 1_000_000, &work);
            producers.push(Source::External(e));
        }
        for &p in inputs {
            if let Some(j) = local_index(p) {
                producers.push(Source::Local(j));
            } else {
                let e = ext_stream_for(p, &work);
                producers.push(Source::External(e));
            }
        }
        let writes_extern = net.consumers(id).iter().any(|c| local_index(*c).is_none())
            || net.consumers(id).is_empty();

        // Decoupling depth from the per-lane queue budget, floored at the
        // group-wide `min_ahead`.
        let rows = work.out_rows.max(1) as f64;
        let mean_col_bytes = (work.out_csf_bytes() / work.out_cols.max(1) as f64 / rows).max(1.0);
        let ahead_cols =
            ((cfg.queue_bytes_per_lane as f64 / mean_col_bytes) as usize).clamp(min_ahead, 128);

        let mut cum_macs = Vec::with_capacity(work.out_cols + 1);
        let mut am = 0.0;
        cum_macs.push(0.0);
        for c in 0..work.out_cols {
            am += work.macs_per_col[c];
            cum_macs.push(am);
        }
        let weight_left = work.weight_csf_bytes;
        layers.push(SimLayer {
            work,
            cum_macs,
            producers,
            writes_extern,
            weight_left,
            weight_streamed: 0.0,
            cols_done: 0,
            col_progress: 0.0,
            produced_bytes: 0.0,
            written_bytes: 0.0,
            macs_executed: 0.0,
            ahead_cols,
        });
    }
    (layers, ext_streams)
}
