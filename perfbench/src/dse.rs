//! `dse-arch`: `search_arch` on R96 over `ArchSpace::default()` (10,800
//! described points) with the default `SearchOptions` and the engine
//! cache on, as `dse --arch-space` runs it. Analytical screening takes
//! most of a sweep; about nine points reach the cycle-level simulator.
//! Each sweep simulates a fresh seed, so its survivors miss the cache
//! like a first `dse` run's.

use std::time::Instant;

use isos_explore::arch::{reference, ArchAccel, ArchDesc};
use isos_explore::search::{screen_arch, ArchScreenedPoint};
use isos_explore::{pareto_indices, search_arch, ArchPoint, ArchSpace, SearchOptions};
use isos_nn::models::{suite_workload, Workload};
use isos_sim::energy::{energy_of, EnergyParams};
use isos_sim::metrics::NetworkMetrics;
use isosceles::accel::Accelerator;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};

use crate::check::{conserves, digest, Models, Tally};
use crate::stats::{median, timed, Metric, Timing};
use crate::trace::{Profile, Tracer};
use crate::{Outcome, Run};

/// The swept network.
const NET: &str = "R96";

/// One sweep's input: the network and the direct simulation of the
/// anchor every speedup is measured against.
struct Input {
    seed: u64,
    workload: Workload,
    anchor: ArchDesc,
    anchor_metrics: NetworkMetrics,
}

impl Input {
    /// Builds the network and simulates the anchor directly, one layer
    /// call at a time (a pass of its own when traced). The shipped
    /// ISOSceles description lowers to the default `isosceles` model, bit
    /// for bit (`crates/explore/tests/arch_validation.rs`), so the direct
    /// simulation is that model's.
    fn new(t: &mut Tracer, models: &Models, seed: u64) -> Self {
        t.pass("dse.input", |t| {
            let workload = t.span("nn.build", |_| suite_workload(NET, seed));
            let anchor_metrics = models.simulate_layers(t, 0, &workload.network, seed);
            Self {
                seed,
                workload,
                anchor: reference::isosceles(),
                anchor_metrics,
            }
        })
    }
}

/// What a sweep leaves for the checks.
struct Sweep {
    screened: usize,
    simulated: usize,
    /// The anchor's simulated cycles and energy in mJ, as the sweep
    /// reports them.
    anchor: Option<(u64, f64)>,
    /// Conservation failures of the simulated points' metrics (only a
    /// traced sweep sees their breakdowns).
    unconserved: Vec<String>,
}

/// The anchor's energy as `search_arch` derives it from its metrics.
fn energy_mj(m: &NetworkMetrics) -> f64 {
    energy_of(&m.total.activity, &EnergyParams::default()).total_mj()
}

/// One `dse --arch-space` sweep: enumerate the space, then `search_arch`.
fn sweep(engine: &SuiteEngine, input: &Input) -> Sweep {
    let points = ArchSpace::default().enumerate();
    let result = search_arch(
        engine,
        &input.workload,
        &points,
        &SearchOptions::default(),
        input.seed,
    )
    .expect("ArchSpace points are valid by construction");
    Sweep {
        screened: result.screened,
        simulated: result.evaluated.len(),
        anchor: result
            .evaluated
            .iter()
            .find(|e| e.desc == input.anchor)
            .map(|e| (e.cycles, e.energy_mj)),
        unconserved: Vec::new(),
    }
}

/// The same sweep one layer call at a time: `search_arch` taken apart
/// into its public steps (enumerate, `screen_arch`, the survivors'
/// `run_matrix`, their estimates and the Pareto cut).
fn traced_sweep(t: &mut Tracer, engine: &SuiteEngine, input: &Input) -> Sweep {
    t.pass("dse-arch", |t| {
        let points = t.span("explore.enumerate", |_| ArchSpace::default().enumerate());
        let screened: Vec<ArchScreenedPoint> = t
            .span("explore.screen", |_| screen_arch(&input.workload, &points))
            .expect("ArchSpace points are valid by construction");
        let total = screened.len();
        // Budget filter, top-K cut and anchor, freeing the screened and
        // enumerated points as `search_arch` does.
        let survivors = t.span("explore.select", |_| {
            let opts = SearchOptions::default();
            let mut survivors: Vec<ArchPoint> = screened
                .into_iter()
                .filter(|s| opts.budget_mm2.is_none_or(|b| s.area_mm2 <= b))
                .take(opts.top_k.max(1))
                .map(|s| s.point)
                .collect();
            if !survivors.iter().any(|p| p.desc == input.anchor) {
                survivors.push(ArchPoint {
                    label: "paper-default".into(),
                    desc: input.anchor.clone(),
                });
            }
            drop(points);
            survivors
        });
        let accels: Vec<ArchAccel> = survivors
            .iter()
            .map(|p| ArchAccel::new(p.desc.clone()).expect("survivors validated during screening"))
            .collect();
        let dyn_accels: Vec<&dyn Accelerator> =
            accels.iter().map(|a| a as &dyn Accelerator).collect();
        let (grid, _) = t.span("explore.sim", |_| {
            engine.run_matrix(
                std::slice::from_ref(&input.workload),
                &dyn_accels,
                input.seed,
            )
        });
        t.span("explore.evaluate", |_| {
            let objectives: Vec<Vec<f64>> = accels
                .iter()
                .zip(&grid[0])
                .map(|(a, m)| {
                    // `search_arch` keeps each survivor's estimate as its
                    // `est_cycles`; the work is the same here.
                    std::hint::black_box(a.estimate(&input.workload.network));
                    vec![m.total.cycles as f64, a.area_mm2(), energy_mj(m)]
                })
                .collect();
            pareto_indices(&objectives)
        });
        Sweep {
            screened: total,
            simulated: survivors.len(),
            anchor: survivors
                .iter()
                .zip(&grid[0])
                .find(|(p, _)| p.desc == input.anchor)
                .map(|(_, m)| (m.total.cycles, energy_mj(m))),
            unconserved: survivors
                .iter()
                .zip(&grid[0])
                .filter_map(|(p, m)| conserves(m).err().map(|e| format!("{}: {e}", p.label)))
                .collect(),
        }
    })
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    // Set-up opens an engine on an empty cache and warms up with one
    // sweep of the run seed; sweep i then simulates seed + 1 + i.
    let cache_dir = run.dir.join("dse-cache");
    let models = Models::default();
    let ((engine, first), setup_s) = run.setup(|| {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let engine = SuiteEngine::new(EngineOptions {
            threads: run.threads,
            use_cache: true,
            cache_dir: cache_dir.clone(),
            cache_bytes: None,
            quiet: true,
        });
        let input = Input::new(&mut Tracer::disabled(), &models, run.seed);
        sweep(&engine, &input);
        (engine, input)
    });
    let space = ArchSpace::default().len();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut plain = Tracer::disabled();
    let mut untraced = Vec::<Timing>::new();
    let (mut computes, mut jobs) = (engine.lifetime_computes(), engine.lifetime_cache().total());
    run.passes(|i| {
        let traced = run.traced(i);
        let t = if traced { &mut tracer } else { &mut plain };
        let input = Input::new(t, &models, run.seed.wrapping_add(1 + i as u64));
        let (s, t) = timed(1, || {
            if traced {
                traced_sweep(&mut tracer, &engine, &input)
            } else {
                sweep(&engine, &input)
            }
        });
        if !traced {
            untraced.push(t);
        }
        let mut problems = Vec::new();
        let direct = &input.anchor_metrics;
        let want = (direct.total.cycles, energy_mj(direct));
        if s.anchor != Some(want) {
            problems.push(format!(
                "anchor (cycles, mJ) {:?}, direct simulation gives {want:?}",
                s.anchor
            ));
        }
        problems.extend(s.unconserved);
        if s.screened != space || s.simulated == 0 {
            problems.push(format!(
                "screened {} of {space}, simulated {}",
                s.screened, s.simulated
            ));
        }
        tally.record("dse-arch sweep", problems);
    });
    computes = engine.lifetime_computes() - computes;
    jobs = engine.lifetime_cache().total() + engine.lifetime_deduped() - jobs;

    let mut profile = Profile::default();
    profile.absorb(tracer);
    let extra = if run.trace {
        let layers = profile.layers();
        let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls as usize);
        let screens = calls("explore.screen");
        vec![
            Metric::lower(
                "explore.enumerate_ms",
                "ms",
                profile.mean_ms("explore.enumerate"),
                calls("explore.enumerate"),
            ),
            Metric::lower(
                "explore.screen_ms",
                "ms",
                profile.mean_ms("explore.screen"),
                screens,
            ),
            Metric::lower(
                "explore.screen_us_per_point",
                "us",
                profile.mean_ms("explore.screen") * 1e3 / space as f64,
                screens * space,
            ),
            Metric::lower(
                "explore.select_ms",
                "ms",
                profile.mean_ms("explore.select"),
                calls("explore.select"),
            ),
            Metric::lower(
                "explore.sim_ms",
                "ms",
                profile.mean_ms("explore.sim"),
                calls("explore.sim"),
            ),
            Metric::lower(
                "explore.evaluate_ms",
                "ms",
                profile.mean_ms("explore.evaluate"),
                calls("explore.evaluate"),
            ),
            Metric::lower(
                "engine.computes_per_job",
                "ratio",
                computes as f64 / jobs.max(1) as f64,
                jobs,
            ),
        ]
    } else {
        Vec::new()
    };
    Outcome {
        tally,
        pass_ms: untraced.iter().map(|t| t.ref_ms).collect(),
        setup_s,
        extra,
        digest: digest([&first.anchor_metrics]),
        profile,
        pass_kind: "dse-arch",
        untraced_pass_ms: median(&untraced.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
    }
}
