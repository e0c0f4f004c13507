//! Cycle-conservation and traffic-conservation checks over the full
//! evaluation matrix: every suite workload on every accelerator model.
//!
//! Two invariants make the stall attribution trustworthy:
//!
//! 1. **Cycle conservation** — for every traced unit, `busy` plus the
//!    four stall buckets accounts for exactly the unit's recorded
//!    cycles (relative 1e-6, the buckets are floats).
//! 2. **Traffic conservation** — the granted bytes recorded on the DRAM
//!    events sum to the same weight / activation traffic the metrics
//!    report, so the timeline's bandwidth counters and the headline
//!    numbers cannot drift apart. The per-interval accumulation order
//!    is identical on both paths; only the cross-group reassociation
//!    differs, hence the tight relative tolerance.
//!
//! A third check pins the observer effect at zero: tracing a run
//! returns metrics equal to the untraced run.

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_nn::models::{suite_workload, SUITE_IDS};
use isos_trace::EventBuffer;
use isosceles::{Accelerator, IsoscelesConfig};

const SEED: u64 = 0xC0FFEE;

/// The order [`models`] returns, for failure messages.
const MODEL_ORDER: &str = "isosceles, isosceles-single, sparten, fused-layer";

fn models() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(IsoscelesConfig::default()),
        Box::new(IsoscelesSingleConfig::default()),
        Box::new(SpartenConfig::default()),
        Box::new(FusedLayerConfig::default()),
    ]
}

/// `|a - b|` within `rel` of the magnitude (or within `rel` absolutely,
/// for values near zero).
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn busy_plus_stalls_accounts_for_every_unit_cycle() {
    for id in SUITE_IDS {
        let w = suite_workload(id, SEED);
        for accel in models() {
            let mut buf = EventBuffer::new();
            accel.simulate_traced(&w.network, SEED, &mut buf);
            assert!(!buf.is_empty(), "{}/{id}: no events recorded", accel.name());
            for b in buf.breakdowns() {
                let cycles = b.cycles as f64;
                assert!(
                    close(b.accounted(), cycles, 1e-6),
                    "{}/{id} unit {}: busy {} + stalls {:?} = {} != cycles {}",
                    accel.name(),
                    b.name,
                    b.busy,
                    b.stalls,
                    b.accounted(),
                    cycles
                );
                assert!(
                    b.busy >= -1e-9 && b.stalls.iter().all(|s| *s >= -1e-9),
                    "{}/{id} unit {}: negative occupancy ({} / {:?})",
                    accel.name(),
                    b.name,
                    b.busy,
                    b.stalls
                );
            }
        }
    }
}

#[test]
fn dram_grant_events_sum_to_the_reported_traffic() {
    use isos_trace::DramClass;
    for id in SUITE_IDS {
        let w = suite_workload(id, SEED);
        for accel in models() {
            let mut buf = EventBuffer::new();
            let m = accel.simulate_traced(&w.network, SEED, &mut buf);
            let totals = buf.dram_totals();
            let weight = totals.granted(DramClass::WeightRead);
            assert!(
                close(weight, m.total.weight_traffic, 1e-9),
                "{}/{id}: traced weight grants {} != metrics {}",
                accel.name(),
                weight,
                m.total.weight_traffic
            );
            assert!(
                close(totals.act_granted(), m.total.act_traffic, 1e-9),
                "{}/{id}: traced activation grants {} != metrics {}",
                accel.name(),
                totals.act_granted(),
                m.total.act_traffic
            );
        }
    }
}

/// The suite at the paper-default configuration never fills the
/// decoupling queues, so `OutputBlocked` stays zero there; shrinking the
/// per-lane queue budget makes consumer backpressure bind and the
/// attribution must both fire and keep conserving cycles.
#[test]
fn output_blocked_fires_under_tight_queues_and_still_conserves() {
    use isos_trace::StallKind;
    let w = suite_workload("M75", SEED);
    let cfg = IsoscelesConfig {
        queue_bytes_per_lane: 256,
        ..Default::default()
    };
    let mut buf = EventBuffer::new();
    cfg.simulate_traced(&w.network, SEED, &mut buf);
    let blocked: f64 = buf
        .breakdowns()
        .iter()
        .map(|b| b.stalls[StallKind::OutputBlocked.index()])
        .sum();
    assert!(
        blocked > 0.0,
        "tight queues must surface output-blocked stalls, got {blocked}"
    );
    for b in buf.breakdowns() {
        assert!(
            close(b.accounted(), b.cycles as f64, 1e-6),
            "unit {}: accounted {} != cycles {}",
            b.name,
            b.accounted(),
            b.cycles
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_metrics() {
    for id in SUITE_IDS {
        let w = suite_workload(id, SEED);
        for accel in models() {
            let untraced = accel.simulate(&w.network, SEED);
            let mut buf = EventBuffer::new();
            let traced = accel.simulate_traced(&w.network, SEED, &mut buf);
            assert_eq!(
                traced,
                untraced,
                "{}/{id}: traced metrics diverged",
                accel.name()
            );
        }
    }
}

/// The events themselves, not only their sums, are pinned: an FNV-1a
/// hash of the Perfetto export for two networks on every model, captured
/// from a known-good build. A change to how any model emits its compute
/// or DRAM events (order, timestamps, demand, grants, attribution) shows
/// here even when every conservation law above still holds.
#[test]
fn perfetto_exports_are_pinned() {
    use isos_trace::export::perfetto_json;
    use isosceles::accel::{fnv1a, FNV_OFFSET};
    let pinned: [(&str, [u64; 4]); 2] = [
        (
            "G58",
            [
                0xa118b24a75a7c0ad,
                0x374606e75c084a36,
                0xeec5b4eaadb64675,
                0xeadc34829c6716cc,
            ],
        ),
        (
            "R96",
            [
                0x6f87ae397258f263,
                0xc5f5400d58e39bf0,
                0x41e1facd4da56e07,
                0x6dc4913ee581bdea,
            ],
        ),
    ];
    for (id, want) in pinned {
        let w = suite_workload(id, SEED);
        let got: Vec<u64> = models()
            .iter()
            .map(|accel| {
                let mut buf = EventBuffer::new();
                accel.simulate_traced(&w.network, SEED, &mut buf);
                let json = perfetto_json(&buf, &format!("{} on {id}", accel.name()));
                fnv1a(FNV_OFFSET, json.as_bytes())
            })
            .collect();
        assert_eq!(
            got, want,
            "{id}: trace exports changed (model order: {MODEL_ORDER})"
        );
    }
}
