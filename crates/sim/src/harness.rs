//! The shared interval-simulation memory harness.
//!
//! Every accelerator model in this workspace advances in scheduling
//! intervals against the same DRAM interface, and every one of them used
//! to hand-roll the same sequence: post per-requester read demand and
//! pooled write demand, [`Dram::grant`] the interval's bandwidth,
//! throttle the requesters proportionally with
//! [`arbitrate`](crate::dram::arbitrate), and
//! accumulate the granted bytes into traffic/utilization/energy
//! accounting. [`MemHarness`] owns that sequence once:
//!
//! - the cycle-level ISOSceles pipeline calls [`MemHarness::step`] every
//!   scheduler interval with its read demand split by class (one weight
//!   stream per layer, one activation stream per external input) plus
//!   the per-sink writeback queue, granted in place. It posts only the
//!   requesters that can demand bytes, and calls [`MemHarness::idle`]
//!   when there are none;
//! - the analytic SparTen and Fused-Layer models call
//!   [`MemHarness::transfer`] once per layer, or [`MemHarness::step`]
//!   once per group, with the closed-form byte totals and the modeled
//!   cycle count.
//!
//! Either way, [`MemHarness::finish`] folds the accumulated traffic
//! split, bandwidth utilization, and DRAM energy activity into a
//! [`RunMetrics`], so the accounting tail is identical across models.
//! Tracing rides on the same call: given a trace sink and tags, a step
//! also emits one DRAM event per requester, and the grants are unchanged.
//!
//! # Examples
//!
//! ```
//! use isos_sim::harness::MemHarness;
//! use isos_sim::metrics::RunMetrics;
//! let mut mem = MemHarness::new(128.0);
//! // One 100-cycle interval: a weight stream and an activation stream
//! // oversubscribe the 12.8 kB capacity and are throttled 2:1.
//! let (mut weights, mut acts) = ([10_000.0], [5_000.0]);
//! mem.step(&mut weights, &mut acts, &mut [0.0], 100, None);
//! assert!((weights[0] / acts[0] - 2.0).abs() < 1e-9);
//! let mut m = RunMetrics { cycles: 100, ..Default::default() };
//! mem.finish(&mut m);
//! assert_eq!(m.total_traffic(), 12_800.0);
//! assert_eq!(m.bw_util.ratio(), 1.0);
//! ```

use crate::dram::{throttle_with_total, Dram};
use crate::metrics::RunMetrics;
use crate::stats::Utilization;
use isos_trace::{emit_dram, DramClass, TraceSink, UnitId};

/// Byte totals granted so far, split by class and direction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficTotals {
    /// Weight bytes read.
    pub weight_read: f64,
    /// Activation bytes read.
    pub act_read: f64,
    /// Activation bytes written back.
    pub act_write: f64,
}

impl TrafficTotals {
    /// Total bytes moved in either direction.
    pub fn total(&self) -> f64 {
        self.weight_read + self.act_read + self.act_write
    }
}

/// Trace tags for the DRAM events of one [`MemHarness::step`]: the
/// interval's start cycle and the trace unit of each posted requester,
/// slice by slice. A requester past the end of its slice is tagged
/// [`UnitId::NONE`].
#[derive(Clone, Copy, Debug)]
pub struct DramTags<'a> {
    /// Start cycle of the interval.
    pub t: u64,
    /// Units of the weight streams, in `weight_reads` order.
    pub weights: &'a [UnitId],
    /// Units of the activation streams, in `act_reads` order.
    pub acts: &'a [UnitId],
    /// Units of the writeback queues, in `writes` order.
    pub writes: &'a [UnitId],
}

/// The shared post-demand → grant → throttle → accumulate harness. See
/// the [module docs](self).
#[derive(Clone, Debug)]
pub struct MemHarness {
    dram: Dram,
    traffic: TrafficTotals,
    /// The demand posted to the current step, copied before it is granted
    /// in place so the trace events can carry it (untouched when the sink
    /// is disabled).
    posted: Vec<f64>,
}

impl MemHarness {
    /// Creates a harness over a DRAM with the given peak bandwidth in
    /// bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f64) -> Self {
        Self {
            dram: Dram::new(bytes_per_cycle),
            traffic: TrafficTotals::default(),
            posted: Vec::new(),
        }
    }

    /// Maximum bytes transferable in `cycles`.
    pub fn capacity(&self, cycles: u64) -> f64 {
        self.dram.capacity(cycles)
    }

    /// The underlying DRAM model (read-only).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// One scheduling interval, granted **in place**: posts every read
    /// requester's demand (each clamped to the interval capacity) plus
    /// the pooled write demand, grants DRAM bandwidth for `cycles`,
    /// splits the granted reads and writes proportionally, and
    /// accumulates the grants into the per-class traffic totals. On
    /// return each slice element holds the bytes granted to that
    /// requester, and the result is the `(granted_read, granted_write)`
    /// totals.
    ///
    /// Clamping, the demand sum and the per-class accumulation all walk
    /// the weight streams first, then the activation streams, left to
    /// right; both read classes share one demand total, hence one
    /// throttle scale.
    ///
    /// Given a `trace`, the step also emits one
    /// [DRAM event](isos_trace::TraceEvent::Dram) per requester (weights,
    /// then activations, then writers) to its sink under its tags,
    /// carrying the posted demand against the grant. The grants are the
    /// same either way. Callers pass `None` when their sink is disabled,
    /// so an untraced step costs no call through the sink.
    pub fn step(
        &mut self,
        weight_reads: &mut [f64],
        act_reads: &mut [f64],
        writes: &mut [f64],
        cycles: u64,
        trace: Option<(DramTags<'_>, &mut dyn TraceSink)>,
    ) -> (f64, f64) {
        if trace.is_some() {
            self.posted.clear();
            self.posted.extend_from_slice(weight_reads);
            self.posted.extend_from_slice(act_reads);
            self.posted.extend_from_slice(writes);
        }
        let capacity = self.dram.capacity(cycles);
        let mut total_read = 0.0;
        for d in weight_reads.iter_mut() {
            *d = d.min(capacity);
            total_read += *d;
        }
        for d in act_reads.iter_mut() {
            *d = d.min(capacity);
            total_read += *d;
        }
        let write_demand: f64 = writes.iter().sum();
        let (granted_read, granted_write) =
            self.dram
                .grant(total_read, write_demand.min(capacity), cycles);
        // Both read classes share one demand total and one grant, hence
        // one scale: computing the division once and applying it to both
        // slices is element-for-element what two `throttle_with_total`
        // calls would do.
        if !(total_read <= granted_read || total_read == 0.0) {
            let scale = granted_read / total_read;
            for d in weight_reads.iter_mut() {
                *d *= scale;
            }
            for d in act_reads.iter_mut() {
                *d *= scale;
            }
        }
        for granted in weight_reads.iter() {
            self.traffic.weight_read += granted;
        }
        for granted in act_reads.iter() {
            self.traffic.act_read += granted;
        }
        throttle_with_total(writes, write_demand, granted_write);
        for granted in writes.iter() {
            self.traffic.act_write += granted;
        }
        if let Some((tags, sink)) = trace {
            let classes = [
                (DramClass::WeightRead, &*weight_reads, tags.weights),
                (DramClass::ActivationRead, &*act_reads, tags.acts),
                (DramClass::ActivationWrite, &*writes, tags.writes),
            ];
            let mut posted = self.posted.iter();
            for (class, grants, units) in classes {
                for (i, (&granted, &demand)) in grants.iter().zip(&mut posted).enumerate() {
                    let unit = units.get(i).copied().unwrap_or(UnitId::NONE);
                    emit_dram(sink, unit, tags.t, cycles, class, demand, granted);
                }
            }
        }
        (granted_read, granted_write)
    }

    /// One scheduling interval in which no requester posts a byte.
    ///
    /// Equal to a [`step`](Self::step) over all-zero demand, bit for bit:
    /// such a step grants nothing, adds `+0.0` to every traffic total,
    /// emits no DRAM event (zero demand and zero grant) and records
    /// `cycles` of zero busy time, which is all this does.
    pub fn idle(&mut self, cycles: u64) {
        self.dram.idle(cycles);
    }

    /// Closed-form convenience for the analytic models: one weight
    /// stream, one activation stream, and one writeback, all serving
    /// trace unit `unit`, granted over `cycles` cycles from start cycle
    /// `t` (see [`step`](Self::step)).
    ///
    /// Callers size `cycles` at or above the memory time of the posted
    /// bytes, so the grant is complete and the traffic totals equal the
    /// posted demand exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        weight_read: f64,
        act_read: f64,
        act_write: f64,
        cycles: u64,
        t: u64,
        unit: UnitId,
        sink: &mut dyn TraceSink,
    ) {
        let units = [unit];
        let tags = DramTags {
            t,
            weights: &units,
            acts: &units,
            writes: &units,
        };
        let trace = sink.enabled().then_some((tags, sink));
        self.step(
            &mut [weight_read],
            &mut [act_read],
            &mut [act_write],
            cycles,
            trace,
        );
    }

    /// Byte totals granted so far, split by class and direction.
    pub fn traffic(&self) -> TrafficTotals {
        self.traffic
    }

    /// Bandwidth utilization so far (paper Fig. 15).
    pub fn utilization(&self) -> Utilization {
        self.dram.utilization()
    }

    /// Folds the accumulated memory-side accounting into `m`: the
    /// weight/activation traffic split, the bandwidth utilization, and
    /// the DRAM byte activity for the energy model.
    ///
    /// Compute-side activity is recorded separately via
    /// [`RunMetrics::charge_compute_activity`].
    pub fn finish(&self, m: &mut RunMetrics) {
        m.bw_util = self.dram.utilization();
        m.weight_traffic = self.traffic.weight_read;
        m.act_traffic = self.traffic.act_read + self.traffic.act_write;
        m.activity.dram_bytes = m.total_traffic();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_trace::{EventBuffer, NullSink, TraceEvent, UnitKind};

    /// Steps a fresh harness untraced; returns it with the in-place
    /// grants `(weights, acts, writes)` and the totals.
    fn step_once(
        bytes_per_cycle: f64,
        weights: &[f64],
        acts: &[f64],
        writes: &[f64],
        cycles: u64,
    ) -> (MemHarness, [Vec<f64>; 3], (f64, f64)) {
        let mut mem = MemHarness::new(bytes_per_cycle);
        let mut g = [weights.to_vec(), acts.to_vec(), writes.to_vec()];
        let [w, a, wr] = &mut g;
        let totals = mem.step(w, a, wr, cycles, None);
        (mem, g, totals)
    }

    #[test]
    fn step_grants_everything_under_capacity() {
        let (mem, g, totals) = step_once(128.0, &[1000.0], &[500.0], &[200.0, 0.0], 100);
        assert_eq!(g, [vec![1000.0], vec![500.0], vec![200.0, 0.0]]);
        assert_eq!(totals, (1500.0, 200.0));
        let t = mem.traffic();
        assert_eq!(t.weight_read, 1000.0);
        assert_eq!(t.act_read, 500.0);
        assert_eq!(t.act_write, 200.0);
        assert_eq!(t.total(), 1700.0);
    }

    #[test]
    fn oversubscription_throttles_proportionally() {
        // Capacity 1000; read demand 1500, write demand 500 (each
        // individual demand stays under the per-requester capacity clamp).
        let (mem, g, (granted_read, granted_write)) =
            step_once(10.0, &[900.0], &[600.0], &[500.0], 100);
        assert!((granted_read - 750.0).abs() < 1e-9);
        assert!((granted_write - 250.0).abs() < 1e-9);
        // Read split preserves the 900:600 ratio.
        assert!((g[0][0] / g[1][0] - 1.5).abs() < 1e-9);
        assert_eq!(mem.utilization().ratio(), 1.0);
    }

    #[test]
    fn per_requester_demand_is_clamped_to_capacity() {
        // One stream asks for far more than the 10-byte interval.
        let (_, _, (granted_read, _)) = step_once(1.0, &[1e9], &[], &[], 10);
        assert_eq!(granted_read, 10.0);
        assert_eq!(step_once(1.0, &[0.0], &[], &[], 10).2, (0.0, 0.0));
    }

    #[test]
    fn finish_folds_the_accounting_tail() {
        let mut mem = MemHarness::new(128.0);
        mem.transfer(600.0, 300.0, 100.0, 100, 0, UnitId::NONE, &mut NullSink);
        let mut m = RunMetrics {
            cycles: 100,
            ..Default::default()
        };
        mem.finish(&mut m);
        assert_eq!(m.weight_traffic, 600.0);
        assert_eq!(m.act_traffic, 400.0);
        assert_eq!(m.activity.dram_bytes, 1000.0);
        assert!((m.bw_util.ratio() - 1000.0 / 12800.0).abs() < 1e-12);
    }

    #[test]
    fn traced_step_matches_untraced_and_records_grants() {
        let (plain, gp, totals) = step_once(10.0, &[900.0], &[600.0], &[500.0], 100);

        let mut traced = MemHarness::new(10.0);
        let mut buf = EventBuffer::new();
        buf.unit("a", UnitKind::Layer);
        buf.unit("b", UnitKind::Layer);
        let mut gt = [vec![900.0], vec![600.0], vec![500.0]];
        let [w, a, wr] = &mut gt;
        let tags = DramTags {
            t: 700,
            weights: &[UnitId(0)],
            acts: &[UnitId(1)],
            writes: &[UnitId(1)],
        };
        assert_eq!(traced.step(w, a, wr, 100, Some((tags, &mut buf))), totals);
        assert_eq!(gt, gp);
        assert_eq!(traced.traffic(), plain.traffic());
        // One event per requester, weights then activations then the
        // writer, posted demand vs. grant intact.
        assert_eq!(buf.len(), 3);
        let expect = [
            (UnitId(0), DramClass::WeightRead, 900.0, gp[0][0]),
            (UnitId(1), DramClass::ActivationRead, 600.0, gp[1][0]),
            (UnitId(1), DramClass::ActivationWrite, 500.0, gp[2][0]),
        ];
        for (event, want) in buf.events().iter().zip(expect) {
            match *event {
                TraceEvent::Dram {
                    unit,
                    t,
                    class,
                    demand,
                    granted,
                    ..
                } => assert_eq!(
                    (unit, class, demand, granted, t),
                    (want.0, want.1, want.2, want.3, 700)
                ),
                _ => panic!("expected DRAM event"),
            }
        }
    }

    /// `(unit, class, demand, granted)` of every DRAM event, as bits.
    fn dram_events(buf: &EventBuffer) -> Vec<(UnitId, DramClass, u64, u64)> {
        buf.events()
            .iter()
            .map(|e| match *e {
                TraceEvent::Dram {
                    unit,
                    class,
                    demand,
                    granted,
                    ..
                } => (unit, class, demand.to_bits(), granted.to_bits()),
                _ => panic!("expected DRAM event"),
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn idle_equals_a_step_with_all_zero_demand() {
        let mut stepped = MemHarness::new(96.0);
        let mut idled = MemHarness::new(96.0);
        // Some traffic first, so the totals are not trivially zero.
        for mem in [&mut stepped, &mut idled] {
            mem.step(&mut [700.0], &mut [300.0], &mut [50.0], 100, None);
        }
        let mut buf = EventBuffer::new();
        let units = [UnitId(0), UnitId(1)];
        let tags = DramTags {
            t: 100,
            weights: &units,
            acts: &units,
            writes: &units,
        };
        let totals = stepped.step(
            &mut [0.0, 0.0],
            &mut [0.0],
            &mut [0.0, 0.0],
            100,
            Some((tags, &mut buf)),
        );
        idled.idle(100);
        assert_eq!(totals, (0.0, 0.0));
        assert!(buf.is_empty(), "a zero-demand step emits no events");
        let (a, b) = (stepped.traffic(), idled.traffic());
        assert_eq!(
            bits(&[a.weight_read, a.act_read, a.act_write]),
            bits(&[b.weight_read, b.act_read, b.act_write])
        );
        let (ua, ub) = (stepped.utilization(), idled.utilization());
        assert_eq!(
            (ua.busy().to_bits(), ua.total()),
            (ub.busy().to_bits(), ub.total())
        );
    }

    /// Posting only the requesters with nonzero demand, in index order,
    /// grants each of them exactly what the full step grants it, and the
    /// skipped ones were granted `+0.0` there: the zeros are identities
    /// in every sum and product of the step.
    #[test]
    fn a_step_over_the_nonzero_requesters_equals_the_full_step() {
        let cases: [(f64, [&[f64]; 3]); 3] = [
            // Under capacity.
            (
                128.0,
                [
                    &[0.0, 1000.0, 0.0, 37.5],
                    &[0.0, 0.0, 512.25],
                    &[0.0, 200.0, 0.0],
                ],
            ),
            // Oversubscribed reads and writes, at a bandwidth that is not
            // a power of two (the utilization divides).
            (
                96.0,
                [
                    &[0.0, 9000.0, 0.0, 4100.5],
                    &[2500.0, 0.0, 0.0],
                    &[0.0, 0.0, 3333.0],
                ],
            ),
            // Only writes, oversubscribed.
            (32.0, [&[0.0, 0.0], &[0.0], &[0.0, 4000.0]]),
        ];
        for (bw, full) in cases {
            let units: Vec<UnitId> = (0..4).map(UnitId).collect();
            let mut full_mem = MemHarness::new(bw);
            let mut full_buf = EventBuffer::new();
            let mut g = full.map(<[f64]>::to_vec);
            let [w, a, wr] = &mut g;
            let tags = DramTags {
                t: 0,
                weights: &units,
                acts: &units,
                writes: &units,
            };
            let full_totals = full_mem.step(w, a, wr, 100, Some((tags, &mut full_buf)));
            let posted: f64 = full.iter().flat_map(|xs| xs.iter()).sum();
            assert_eq!(
                full_totals.0 + full_totals.1 < posted,
                bw != 128.0,
                "every case but the first is oversubscribed"
            );

            // The compact posting: nonzero requesters only, with their
            // own tags.
            let live =
                |xs: &[f64]| -> Vec<usize> { (0..xs.len()).filter(|&i| xs[i] > 0.0).collect() };
            let idx = full.map(live);
            let mut c: [Vec<f64>; 3] =
                [0, 1, 2].map(|k| idx[k].iter().map(|&i| full[k][i]).collect());
            let c_units: [Vec<UnitId>; 3] =
                [0, 1, 2].map(|k| idx[k].iter().map(|&i| units[i]).collect());
            let mut compact_mem = MemHarness::new(bw);
            let mut compact_buf = EventBuffer::new();
            let [cw, ca, cwr] = &mut c;
            let tags = DramTags {
                t: 0,
                weights: &c_units[0],
                acts: &c_units[1],
                writes: &c_units[2],
            };
            let compact_totals = compact_mem.step(cw, ca, cwr, 100, Some((tags, &mut compact_buf)));

            assert_eq!(
                bits(&[compact_totals.0, compact_totals.1]),
                bits(&[full_totals.0, full_totals.1])
            );
            for k in 0..3 {
                let mut scattered = vec![0.0; full[k].len()];
                for (&i, &x) in idx[k].iter().zip(&c[k]) {
                    scattered[i] = x;
                }
                assert_eq!(bits(&scattered), bits(&g[k]), "bw {bw} class {k}");
            }
            let (ta, tb) = (full_mem.traffic(), compact_mem.traffic());
            assert_eq!(
                bits(&[ta.weight_read, ta.act_read, ta.act_write]),
                bits(&[tb.weight_read, tb.act_read, tb.act_write])
            );
            let (ua, ub) = (full_mem.utilization(), compact_mem.utilization());
            assert_eq!(
                (ua.busy().to_bits(), ua.total()),
                (ub.busy().to_bits(), ub.total())
            );
            assert_eq!(dram_events(&compact_buf), dram_events(&full_buf), "bw {bw}");
        }
    }

    #[test]
    fn transfer_matches_manual_step() {
        let mut a = MemHarness::new(64.0);
        a.transfer(500.0, 250.0, 125.0, 50, 0, UnitId::NONE, &mut NullSink);
        let (b, _, _) = step_once(64.0, &[500.0], &[250.0], &[125.0], 50);
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.utilization(), b.utilization());
    }
}
