//! Interval-class profile of the ISOSceles interval model, read from its
//! trace.
//!
//! Every scheduler interval emits one compute event per member layer and
//! one DRAM event per requester that posted or was granted bytes, all
//! stamped with the interval's start cycle. Grouping the events by that
//! stamp classifies each interval without a counter in the simulator:
//!
//! - `no DRAM`: no requester posted a byte;
//! - `lone`: no DRAM event and exactly one unit did effectual work.
//!
//! Those are the intervals the simulator's exact-zero skips serve (no
//! memory step, one live layer). Run with `--nocapture` to print the
//! table:
//!
//! ```sh
//! cargo test --release -p isos-trace --test interval_profile -- --nocapture
//! ```

use std::collections::BTreeMap;

use isos_baselines::IsoscelesSingleConfig;
use isos_nn::models::{suite_workload, SUITE_IDS};
use isos_trace::{EventBuffer, TraceEvent};
use isosceles::{Accelerator, IsoscelesConfig};

/// Interval counts of one traced run.
#[derive(Clone, Copy, Default)]
struct Classes {
    intervals: u64,
    no_dram: u64,
    lone: u64,
}

fn classify(buf: &EventBuffer) -> Classes {
    // Per interval start: (any DRAM event, busy units).
    let mut at: BTreeMap<u64, (bool, u32)> = BTreeMap::new();
    for e in buf.events() {
        let slot = at.entry(e.t()).or_default();
        match *e {
            TraceEvent::Dram { .. } => slot.0 = true,
            TraceEvent::Compute { busy, .. } => slot.1 += u32::from(busy > 0.0),
        }
    }
    let mut c = Classes {
        intervals: at.len() as u64,
        ..Classes::default()
    };
    for &(dram, busy) in at.values() {
        if !dram {
            c.no_dram += 1;
            c.lone += u64::from(busy == 1);
        }
    }
    c
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

#[test]
fn interval_classes_of_the_suite() {
    let seed = 1;
    let models: [&dyn Accelerator; 2] = [
        &IsoscelesConfig::default(),
        &IsoscelesSingleConfig::default(),
    ];
    let interval = IsoscelesConfig::default().scheduler_interval;
    let mut total = Classes::default();
    eprintln!(
        "{:<5} {:<17} {:>9} {:>9} {:>6} {:>9} {:>6}",
        "net", "model", "intervals", "no DRAM", "%", "lone", "%"
    );
    for id in SUITE_IDS {
        let net = suite_workload(id, seed).network;
        for model in models {
            let mut buf = EventBuffer::new();
            let m = model.simulate_traced(&net, seed, &mut buf);
            let c = classify(&buf);
            // Every interval emits a compute event per member layer, so
            // the classes cover the whole run.
            assert_eq!(
                c.intervals * interval,
                m.total.cycles,
                "{id} {}: intervals do not tile the run",
                model.name()
            );
            eprintln!(
                "{id:<5} {:<17} {:>9} {:>9} {:>5.1}% {:>9} {:>5.1}%",
                model.name(),
                c.intervals,
                c.no_dram,
                pct(c.no_dram, c.intervals),
                c.lone,
                pct(c.lone, c.intervals)
            );
            total.intervals += c.intervals;
            total.no_dram += c.no_dram;
            total.lone += c.lone;
        }
    }
    eprintln!(
        "{:<5} {:<17} {:>9} {:>9} {:>5.1}% {:>9} {:>5.1}%",
        "all",
        "",
        total.intervals,
        total.no_dram,
        pct(total.no_dram, total.intervals),
        total.lone,
        pct(total.lone, total.intervals)
    );
    // The 22 ISOSceles simulations of one perfbench `simulate` pass at
    // seed 1.
    assert_eq!(total.intervals, 54_480);
}
