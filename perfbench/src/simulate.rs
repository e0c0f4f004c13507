//! `simulate`: a closed loop on one thread. Each pass builds the 11
//! suite networks with `suite_workload` and runs `Accelerator::simulate`
//! for all four models, with no engine and no cache, so the simulator
//! kernels (`pipeline`, `mapping`, `nn`) do almost all the work.

use std::time::Instant;

use isos_nn::models::{suite_workload, SUITE_IDS};
use isos_sim::metrics::NetworkMetrics;

use crate::check::{digest, expect_same, Models, Tally};
use crate::stats::{median, timed, Metric, Timing};
use crate::trace::{Profile, Tracer};
use crate::{Outcome, Run};

/// One 44-cell pass through `Accelerator::simulate`, in job order
/// (workload-major, model-minor).
pub fn pass(models: &Models, seed: u64) -> Vec<NetworkMetrics> {
    let mut out = Vec::with_capacity(SUITE_IDS.len() * 4);
    for id in SUITE_IDS {
        let w = suite_workload(id, seed);
        out.extend(models.all().map(|a| a.simulate(&w.network, seed)));
    }
    out
}

/// The same pass one layer call at a time.
fn traced_pass(t: &mut Tracer, models: &Models, seed: u64) -> Vec<NetworkMetrics> {
    t.pass("simulate", |t| {
        let mut out = Vec::with_capacity(SUITE_IDS.len() * 4);
        for id in SUITE_IDS {
            let w = t.span("nn.build", |_| suite_workload(id, seed));
            out.extend((0..4).map(|i| models.simulate_layers(t, i, &w.network, seed)));
        }
        out
    })
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let models = Models::default();
    let (reference, setup_s) = run.setup(|| pass(&models, run.seed));
    let job = |k: usize| format!("{}/{}", SUITE_IDS[k / 4], Models::NAMES[k % 4]);

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut untraced = Vec::<Timing>::new();
    run.passes(|i| {
        let traced = run.traced(i);
        let (out, t) = timed(1, || {
            if traced {
                traced_pass(&mut tracer, &models, run.seed)
            } else {
                pass(&models, run.seed)
            }
        });
        if !traced {
            untraced.push(t);
        }
        let mut problems = Vec::new();
        for (k, (got, want)) in out.iter().zip(&reference).enumerate() {
            expect_same(&mut problems, &job(k), got, want);
        }
        tally.record("simulate pass", problems);
    });

    let mut profile = Profile::default();
    profile.absorb(tracer);
    let extra = if run.trace {
        let calls = profile.layers().get("baselines.sim").map_or(0, |l| l.calls);
        vec![Metric::lower(
            "baselines.sim_ms",
            "ms",
            profile.mean_ms("baselines.sim"),
            calls as usize,
        )]
    } else {
        Vec::new()
    };
    Outcome {
        tally,
        pass_ms: untraced.iter().map(|t| t.ref_ms).collect(),
        setup_s,
        extra,
        digest: digest(&reference),
        profile,
        pass_kind: "simulate",
        untraced_pass_ms: median(&untraced.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
    }
}
