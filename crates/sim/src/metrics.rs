//! Result types shared by every accelerator model in the workspace.
//!
//! The paper's evaluation is fundamentally per-layer (Fig. 12-16 all
//! report layer-by-layer numbers), so the result types live here in the
//! substrate crate rather than in any one accelerator model:
//!
//! - [`RunMetrics`]: cycles, traffic split, utilizations, and energy
//!   activity for one simulated unit (a pipeline group or a layer);
//! - [`NetworkMetrics`]: whole-network totals plus per-pipeline-group
//!   *and* per-layer breakdowns, with the invariant that the breakdowns
//!   sum back to the totals;
//! - [`GroupSplit`]: the per-layer breakdown of a pipeline-group run
//!   that every group-granular model shares, built on
//!   [`apportion_cycles`] (exact-sum integer apportionment of the
//!   group's cycles) and [`apportion_capped`] (water-filled busy time).
//!
//! Every crate, the ISOSceles model included, names them from here, so
//! depending on a *result* does not require depending on the ISOSceles
//! *model*.

use crate::energy::Activity;
use crate::stats::Utilization;
use serde::{Deserialize, Serialize};

/// Metrics from simulating one pipeline group, one layer, or one whole
/// network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Execution cycles.
    pub cycles: u64,
    /// Off-chip weight traffic in bytes (Fig. 14c split).
    pub weight_traffic: f64,
    /// Off-chip activation traffic in bytes (input + output + halo).
    pub act_traffic: f64,
    /// MAC array utilization (Fig. 16).
    pub mac_util: Utilization,
    /// Memory bandwidth utilization (Fig. 15).
    pub bw_util: Utilization,
    /// Activity for the energy model (Fig. 17).
    pub activity: Activity,
    /// Effectual MACs performed.
    pub effectual_macs: f64,
}

impl RunMetrics {
    /// Total off-chip traffic in bytes.
    pub fn total_traffic(&self) -> f64 {
        self.weight_traffic + self.act_traffic
    }

    /// Accumulates another run executed sequentially after this one.
    pub fn accumulate(&mut self, other: &RunMetrics) {
        self.cycles += other.cycles;
        self.weight_traffic += other.weight_traffic;
        self.act_traffic += other.act_traffic;
        self.mac_util.merge(&other.mac_util);
        self.bw_util.merge(&other.bw_util);
        self.activity.merge(&other.activity);
        self.effectual_macs += other.effectual_macs;
    }

    /// Records the compute-side energy activity: `macs` effectual MACs,
    /// each reading one byte from the shared filter buffer and
    /// `local_bytes_per_mac` bytes of lane-local SRAM (context arrays).
    ///
    /// The DRAM side of [`Activity`] is filled by
    /// [`MemHarness::finish`](crate::harness::MemHarness::finish).
    pub fn charge_compute_activity(&mut self, macs: f64, local_bytes_per_mac: f64) {
        self.activity.shared_sram_bytes = macs;
        self.activity.local_sram_bytes = macs * local_bytes_per_mac;
        self.activity.macs = macs;
    }
}

/// Per-group and per-layer breakdown of a network run.
///
/// `groups` carries one entry per pipeline group in execution order
/// (Fig. 18 reports these); `layers` carries one entry per simulated
/// layer, also in execution order (Fig. 12-16 report these). Both
/// breakdowns satisfy the conservation invariant: accumulating their
/// entries reproduces `total` (exactly for `cycles`, to floating-point
/// accumulation order for the byte and MAC counts).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkMetrics {
    /// Whole-network totals.
    pub total: RunMetrics,
    /// Per-pipeline-group results, in execution order.
    pub groups: Vec<(String, RunMetrics)>,
    /// Per-layer results, in execution order.
    pub layers: Vec<(String, RunMetrics)>,
}

impl NetworkMetrics {
    /// Appends one pipeline group with its per-layer breakdown,
    /// accumulating the group into `total`.
    ///
    /// An empty `layers` means the group *is* a single layer (the common
    /// case for layer-by-layer accelerators): the group metrics are then
    /// recorded under `name` in the layer breakdown too.
    pub fn push_group(
        &mut self,
        name: String,
        group: RunMetrics,
        layers: impl IntoIterator<Item = (String, RunMetrics)>,
    ) {
        self.total.accumulate(&group);
        let before = self.layers.len();
        self.layers.extend(layers);
        if self.layers.len() == before {
            self.layers.push((name.clone(), group));
        }
        self.groups.push((name, group));
    }

    /// Accumulates the per-group breakdown back into one [`RunMetrics`]
    /// (for conservation checks against `total`).
    pub fn group_sum(&self) -> RunMetrics {
        let mut sum = RunMetrics::default();
        for (_, m) in &self.groups {
            sum.accumulate(m);
        }
        sum
    }

    /// Accumulates the per-layer breakdown back into one [`RunMetrics`]
    /// (for conservation checks against `total`).
    pub fn layer_sum(&self) -> RunMetrics {
        let mut sum = RunMetrics::default();
        for (_, m) in &self.layers {
            sum.accumulate(m);
        }
        sum
    }
}

/// One inference request's journey through a stream run.
///
/// Cycle counts are on the modeled accelerator clock. The span satisfies
/// `arrival <= start <= completion` and
/// `completion - start == formation-free service`, i.e. `service` is the
/// cycles the accelerator actually spent on this request (reduced below
/// the single-inference cycle count for batch followers whose weight
/// fetch was amortized away).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestSpan {
    /// Position in the generated request stream (0-based).
    pub index: u64,
    /// Cycle at which the request entered the queue.
    pub arrival: u64,
    /// Cycle at which the accelerator started this request.
    pub start: u64,
    /// Cycle at which the request completed.
    pub completion: u64,
    /// Cycles of accelerator service time (`completion - start`).
    pub service: u64,
    /// Index of the batch this request was dispatched in (0-based).
    pub batch: u64,
    /// Whether this request led its batch (leaders pay the weight
    /// traffic; followers reuse the leader's resident weights).
    pub leader: bool,
    /// Queue-wait cycles spent while the server was forming a batch.
    pub formation_wait: u64,
    /// Queue-wait cycles spent while the server was busy with earlier
    /// work.
    pub busy_wait: u64,
    /// Per-request traffic/energy/utilization totals (after batch
    /// amortization).
    pub metrics: RunMetrics,
}

impl RequestSpan {
    /// End-to-end latency in cycles (`completion - arrival`).
    pub fn latency(&self) -> u64 {
        self.completion - self.arrival
    }

    /// Cycles spent queued before service began (`start - arrival`).
    pub fn queue_wait(&self) -> u64 {
        self.start - self.arrival
    }
}

/// Queue-depth statistics over a stream run.
///
/// Depth counts requests that have arrived but not yet entered service
/// (batch followers queue behind their leader); `mean_depth` is
/// time-weighted over the makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Largest instantaneous queue depth observed.
    pub max_depth: u64,
    /// Time-weighted mean queue depth over the makespan.
    pub mean_depth: f64,
}

/// Metrics from streaming a sequence of inference requests through one
/// accelerator.
///
/// `total` plays the same role as [`NetworkMetrics::total`]: its traffic,
/// utilization, and energy activity are the sums over all request spans
/// (so the existing conservation and energy machinery applies
/// unchanged), but its `cycles` field is the stream **makespan** — the
/// cycle at which the last request completed — not the sum of per-request
/// cycles. The server-time identity
/// `busy_cycles + idle_cycles + formation_cycles == total.cycles`
/// holds exactly, as does `service_sum() == busy_cycles`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamMetrics {
    /// Summed request metrics, with `cycles` = stream makespan.
    pub total: RunMetrics,
    /// Cycles the accelerator spent servicing requests.
    pub busy_cycles: u64,
    /// Cycles the accelerator sat idle with an empty queue.
    pub idle_cycles: u64,
    /// Cycles the accelerator deliberately waited to form a fuller
    /// batch while requests were queued.
    pub formation_cycles: u64,
    /// Number of batches dispatched.
    pub batches: u64,
    /// Queue-depth statistics.
    pub queue: QueueStats,
    /// Per-request spans, in arrival order.
    pub requests: Vec<RequestSpan>,
}

impl StreamMetrics {
    /// Per-request end-to-end latencies, ascending.
    pub fn latencies_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.requests.iter().map(RequestSpan::latency).collect();
        v.sort_unstable();
        v
    }

    /// Nearest-rank latency percentile in cycles (`p` in `(0, 100]`).
    ///
    /// Returns 0 for an empty stream.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let sorted = self.latencies_sorted();
        if sorted.is_empty() {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    /// Median (p50) latency in cycles.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency in cycles.
    pub fn p95(&self) -> u64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile tail latency in cycles.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Throughput in images per cycle (requests / makespan).
    pub fn throughput_imgs_per_cycle(&self) -> f64 {
        if self.total.cycles == 0 {
            return 0.0;
        }
        self.requests.len() as f64 / self.total.cycles as f64
    }

    /// Throughput in images per second at a `clock_ghz` GHz clock.
    pub fn throughput_imgs_per_sec(&self, clock_ghz: f64) -> f64 {
        self.throughput_imgs_per_cycle() * clock_ghz * 1e9
    }

    /// Sum of per-request service cycles (for conservation checks
    /// against `busy_cycles`).
    pub fn service_sum(&self) -> u64 {
        self.requests.iter().map(|r| r.service).sum()
    }
}

/// Splits `total` cycles over weights with an exact sum (largest-
/// remainder apportionment), writing the counts into `out`.
///
/// Used to attribute a pipeline group's cycles to its member layers in
/// proportion to the work each executed; the counts always sum to
/// exactly `total`. Non-finite or negative weights count as zero; if
/// every weight is zero the split is uniform. `out` is cleared first and
/// `order` is scratch space for the remainder ranking, so a caller that
/// keeps both across groups never allocates here.
pub fn apportion_cycles(total: u64, weights: &[f64], out: &mut Vec<u64>, order: &mut Vec<usize>) {
    out.clear();
    if weights.is_empty() {
        return;
    }
    let wsum: f64 = weights.iter().map(|&w| sanitize(w)).sum();
    let share = |i: usize| {
        if wsum > 0.0 {
            total as f64 * (sanitize(weights[i]) / wsum)
        } else {
            total as f64 / weights.len() as f64
        }
    };
    out.extend((0..weights.len()).map(|i| share(i).floor() as u64));
    let assigned: u64 = out.iter().sum();
    // Hand the remaining cycles to the largest fractional remainders
    // (ties broken by index, so the order is total and deterministic).
    order.clear();
    order.extend(0..out.len());
    order.sort_unstable_by(|&a, &b| {
        let fa = share(a) - share(a).floor();
        let fb = share(b) - share(b).floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut left = total.saturating_sub(assigned);
    for &i in order.iter().cycle() {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1;
    }
    debug_assert_eq!(out.iter().sum::<u64>(), total);
}

/// A weight as the apportioners read it: non-finite or negative counts
/// as zero.
fn sanitize(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// Splits `total` over `weights` proportionally into `out` (cleared
/// first), never exceeding the per-entry `caps` (water-filling).
///
/// Overflow from capped entries is redistributed among the uncapped ones
/// by weight until everything is placed or every positive-weight entry is
/// saturated; any residual then spills into the remaining cap headroom of
/// zero-weight entries. Used to attribute a group's busy time (a shared
/// resource bounded per layer by that layer's cycles) to its member
/// layers: a plain proportional split followed by clamping would
/// silently drop the clamped mass and break the layers-sum-to-totals
/// invariant. Only `total > caps.iter().sum()` leaves mass unplaced (and
/// every entry comes back saturated).
///
/// # Panics
///
/// Panics if `weights` and `caps` differ in length.
pub fn apportion_capped(total: f64, weights: &[f64], caps: &[f64], out: &mut Vec<f64>) {
    assert_eq!(weights.len(), caps.len(), "weights/caps length mismatch");
    out.clear();
    out.resize(weights.len(), 0.0);
    if total <= 0.0 {
        return;
    }
    // An entry is active while it has weight and cap headroom; only its
    // own pass step changes its `out`, so testing it in place is the
    // same as listing the active set at the start of the pass.
    let active = |out: &[f64], i: usize| sanitize(weights[i]) > 0.0 && out[i] < caps[i];
    let mut left = total;
    // Each pass either places everything or saturates at least one entry,
    // so this terminates in at most `len` passes.
    loop {
        let mut any_active = false;
        let wsum: f64 = (0..out.len())
            .filter(|&i| active(out, i))
            .inspect(|_| any_active = true)
            .map(|i| sanitize(weights[i]))
            .sum();
        if left <= total * 1e-12 || !any_active || wsum <= 0.0 {
            break;
        }
        let mut overflow = 0.0;
        for i in 0..out.len() {
            if active(out, i) {
                let share = left * sanitize(weights[i]) / wsum;
                let take = share.min(caps[i] - out[i]);
                out[i] += take;
                overflow += share - take;
            }
        }
        left = overflow;
    }
    // Every positive-weight entry is saturated (or there were none):
    // spill the rest into whatever cap headroom remains, pro rata.
    if left > total * 1e-12 {
        let headroom = |o: f64, c: f64| (c - o).max(0.0);
        let room: f64 = out.iter().zip(caps).map(|(&o, &c)| headroom(o, c)).sum();
        if room > 0.0 {
            let spill = left.min(room);
            for (o, &c) in out.iter_mut().zip(caps) {
                *o += spill * headroom(*o, c) / room;
            }
        }
    }
}

/// What one member layer of a pipeline group moved and computed on its
/// own, as the group's simulation attributes it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerPart {
    /// Weight bytes read for the layer.
    pub weight_bytes: f64,
    /// Activation bytes read from DRAM into the layer.
    pub act_in: f64,
    /// Activation bytes the layer wrote back to DRAM.
    pub act_out: f64,
    /// Effectual MACs the layer executed.
    pub macs: f64,
}

/// Splits pipeline-group runs into per-layer breakdowns: the one merge
/// every group-granular model shares. Cycles (a group-shared resource)
/// are apportioned by each layer's MACs, and the group's busy MAC/DRAM
/// time by each layer's share of its MACs/traffic, water-filled against
/// the layer's own cycles so clamping cannot drop busy mass and the
/// breakdown still sums to the group totals.
///
/// The buffers live as long as the splitter, so a model that keeps one
/// across the groups of a network allocates nothing per group here.
#[derive(Clone, Debug, Default)]
pub struct GroupSplit {
    parts: Vec<LayerPart>,
    macs: Vec<f64>,
    traffic: Vec<f64>,
    cycles: Vec<u64>,
    caps: Vec<f64>,
    mac_busy: Vec<f64>,
    bw_busy: Vec<f64>,
    order: Vec<usize>,
}

impl GroupSplit {
    /// Starts a new group: forgets the parts of the previous one.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    /// Appends the next member layer's part, in group order.
    pub fn push(&mut self, part: LayerPart) {
        self.parts.push(part);
    }

    /// The per-layer breakdown of `group` over the pushed parts, named
    /// by `names` (one per part, in order), for
    /// [`NetworkMetrics::push_group`]. Each layer's compute activity is
    /// charged at `local_bytes_per_mac` (see
    /// [`RunMetrics::charge_compute_activity`]).
    pub fn breakdown<'a>(
        &'a mut self,
        group: &RunMetrics,
        local_bytes_per_mac: f64,
        names: impl Iterator<Item = String> + 'a,
    ) -> impl Iterator<Item = (String, RunMetrics)> + 'a {
        self.macs.clear();
        self.macs.extend(self.parts.iter().map(|p| p.macs));
        self.traffic.clear();
        self.traffic.extend(
            self.parts
                .iter()
                .map(|p| p.weight_bytes + p.act_in + p.act_out),
        );
        apportion_cycles(group.cycles, &self.macs, &mut self.cycles, &mut self.order);
        self.caps.clear();
        self.caps.extend(self.cycles.iter().map(|&c| c as f64));
        let mac_busy = group.mac_util.busy();
        apportion_capped(mac_busy, &self.macs, &self.caps, &mut self.mac_busy);
        let bw_busy = group.bw_util.busy();
        apportion_capped(bw_busy, &self.traffic, &self.caps, &mut self.bw_busy);
        let split = &*self;
        names.zip(0..split.parts.len()).map(move |(name, i)| {
            let (p, cycles) = (&split.parts[i], split.cycles[i]);
            let mut m = RunMetrics {
                cycles,
                weight_traffic: p.weight_bytes,
                act_traffic: p.act_in + p.act_out,
                effectual_macs: p.macs,
                ..Default::default()
            };
            m.mac_util.add(split.mac_busy[i], cycles);
            m.bw_util.add(split.bw_busy[i], cycles);
            m.activity.dram_bytes = m.total_traffic();
            m.charge_compute_activity(p.macs, local_bytes_per_mac);
            (name, m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_components() {
        let mut a = RunMetrics {
            cycles: 100,
            weight_traffic: 10.0,
            act_traffic: 20.0,
            effectual_macs: 1000.0,
            ..Default::default()
        };
        let b = RunMetrics {
            cycles: 50,
            weight_traffic: 5.0,
            act_traffic: 5.0,
            effectual_macs: 500.0,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.total_traffic(), 40.0);
        assert_eq!(a.effectual_macs, 1500.0);
    }

    #[test]
    fn charge_compute_activity_mirrors_macs() {
        let mut m = RunMetrics::default();
        m.charge_compute_activity(1000.0, 4.0);
        assert_eq!(m.activity.shared_sram_bytes, 1000.0);
        assert_eq!(m.activity.local_sram_bytes, 4000.0);
        assert_eq!(m.activity.macs, 1000.0);
    }

    #[test]
    fn push_group_defaults_layers_to_the_group() {
        let g = RunMetrics {
            cycles: 10,
            ..Default::default()
        };
        let mut n = NetworkMetrics::default();
        n.push_group("conv1".into(), g, Vec::new());
        assert_eq!(n.groups.len(), 1);
        assert_eq!(n.layers.len(), 1);
        assert_eq!(n.layers[0].0, "conv1");
        assert_eq!(n.total.cycles, 10);
    }

    #[test]
    fn push_group_keeps_explicit_layer_breakdown() {
        let l1 = RunMetrics {
            cycles: 6,
            ..Default::default()
        };
        let l2 = RunMetrics {
            cycles: 4,
            ..Default::default()
        };
        let mut g = RunMetrics::default();
        g.accumulate(&l1);
        g.accumulate(&l2);
        let mut n = NetworkMetrics::default();
        n.push_group("g0".into(), g, vec![("a".into(), l1), ("b".into(), l2)]);
        assert_eq!(n.groups.len(), 1);
        assert_eq!(n.layers.len(), 2);
        assert_eq!(n.layer_sum().cycles, n.total.cycles);
        assert_eq!(n.group_sum().cycles, n.total.cycles);
    }

    fn span(index: u64, arrival: u64, start: u64, service: u64) -> RequestSpan {
        RequestSpan {
            index,
            arrival,
            start,
            completion: start + service,
            service,
            metrics: RunMetrics {
                cycles: service,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn stream_percentiles_use_nearest_rank() {
        let mut s = StreamMetrics::default();
        for i in 0..100 {
            // Latencies 1..=100.
            s.requests.push(span(i, 0, i + 1 - i, 0));
            s.requests[i as usize].completion = i + 1;
        }
        assert_eq!(s.p50(), 50);
        assert_eq!(s.p95(), 95);
        assert_eq!(s.p99(), 99);
        assert_eq!(s.latency_percentile(100.0), 100);
        assert_eq!(s.latency_percentile(0.0), 1);
    }

    #[test]
    fn stream_percentiles_on_empty_stream_are_zero() {
        let s = StreamMetrics::default();
        assert_eq!(s.p99(), 0);
        assert_eq!(s.throughput_imgs_per_cycle(), 0.0);
    }

    #[test]
    fn stream_throughput_is_requests_over_makespan() {
        let mut s = StreamMetrics {
            busy_cycles: 150,
            idle_cycles: 50,
            ..Default::default()
        };
        s.requests.push(span(0, 0, 0, 100));
        s.requests.push(span(1, 150, 150, 50));
        s.total.cycles = 200;
        assert_eq!(s.throughput_imgs_per_cycle(), 0.01);
        assert_eq!(s.throughput_imgs_per_sec(1.0), 1e7);
        assert_eq!(s.service_sum(), s.busy_cycles);
        assert_eq!(
            s.busy_cycles + s.idle_cycles + s.formation_cycles,
            s.total.cycles
        );
    }

    #[test]
    fn request_span_latency_accounting() {
        let r = RequestSpan {
            arrival: 10,
            start: 25,
            completion: 40,
            service: 15,
            formation_wait: 5,
            busy_wait: 10,
            ..Default::default()
        };
        assert_eq!(r.latency(), 30);
        assert_eq!(r.queue_wait(), 15);
        assert_eq!(r.formation_wait + r.busy_wait, r.queue_wait());
    }

    fn cycles_of(total: u64, weights: &[f64]) -> Vec<u64> {
        let mut out = vec![99; 5];
        apportion_cycles(total, weights, &mut out, &mut vec![7; 9]);
        out
    }

    fn capped_of(total: f64, weights: &[f64], caps: &[f64]) -> Vec<f64> {
        let mut out = vec![-1.0; 5];
        apportion_capped(total, weights, caps, &mut out);
        out
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        let split = cycles_of(100, &[3.0, 1.0]);
        assert_eq!(split, vec![75, 25]);
        let uneven = cycles_of(10, &[1.0, 1.0, 1.0]);
        assert_eq!(uneven.iter().sum::<u64>(), 10);
        assert!(uneven.iter().all(|&c| (3..=4).contains(&c)));
    }

    #[test]
    fn apportion_handles_degenerate_weights() {
        assert_eq!(cycles_of(7, &[]), Vec::<u64>::new());
        let zeros = cycles_of(7, &[0.0, 0.0]);
        assert_eq!(zeros.iter().sum::<u64>(), 7);
        let nan = cycles_of(9, &[f64::NAN, 1.0, -3.0]);
        assert_eq!(nan.iter().sum::<u64>(), 9);
        assert_eq!(nan[1], 9);
    }

    #[test]
    fn apportion_zero_total_is_zeroes() {
        assert_eq!(cycles_of(0, &[5.0, 1.0]), vec![0, 0]);
    }

    #[test]
    fn apportion_capped_is_proportional_when_uncapped() {
        let out = capped_of(100.0, &[3.0, 1.0], &[1e9, 1e9]);
        assert!((out[0] - 75.0).abs() < 1e-9);
        assert!((out[1] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn apportion_capped_redistributes_overflow() {
        // Entry 0 wants 75 but is capped at 10; its overflow spills to
        // entry 1 so the sum is preserved.
        let out = capped_of(100.0, &[3.0, 1.0], &[10.0, 1e9]);
        assert_eq!(out[0], 10.0);
        assert!((out.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn apportion_capped_saturates_when_total_exceeds_caps() {
        let out = capped_of(100.0, &[1.0, 1.0], &[30.0, 40.0]);
        assert_eq!(out, vec![30.0, 40.0]);
    }

    #[test]
    fn apportion_capped_spills_into_zero_weight_headroom() {
        // The weighted entry saturates at 4; the remaining 6 spill into
        // the zero-weight entry's headroom instead of being dropped.
        let out = capped_of(10.0, &[1.0, 0.0], &[4.0, 20.0]);
        assert_eq!(out[0], 4.0);
        assert!((out[1] - 6.0).abs() < 1e-9);
        // No weights at all: everything is spill.
        let even = capped_of(10.0, &[0.0, 0.0], &[5.0, 5.0]);
        assert_eq!(even, vec![5.0, 5.0]);
    }

    #[test]
    fn apportion_capped_handles_degenerate_inputs() {
        assert_eq!(capped_of(0.0, &[1.0], &[5.0]), vec![0.0]);
        let nan = capped_of(10.0, &[f64::NAN, 1.0], &[100.0, 100.0]);
        assert_eq!(nan[0], 0.0);
        assert!((nan[1] - 10.0).abs() < 1e-9);
    }
}
