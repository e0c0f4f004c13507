//! The search driver: analytically screen every enumerated described
//! point, then dispatch the survivors to the cycle-level simulator
//! through the parallel, cached suite engine.
//!
//! Every sweep is a list of declarative [`ArchPoint`]s: the plain `dse`
//! sweep is the IS-OS slice of [`ArchSpace`](crate::space::ArchSpace),
//! `--arch-space` the whole family space, `--arch` a set of files.
//! Screening gives each point the totals its interpreter's
//! [`ArchAccel::estimate`] gives. [`search_arch`] simulates one image
//! per survivor and [`search_stream`] streams each survivor at several
//! batch sizes; both pick the survivors the same way, and described
//! points cache under their description hash.
//!
//! Screening does the work that depends only on the workload once per
//! sweep (layer facts and one mapping per distinct key for IS-OS,
//! network totals per distinct key for output-stationary, fused-group
//! facts per buffer size) and a closed form per point, keeps totals
//! only, and ranks point indices, so only the survivors are cloned.

use crate::arch::{desc_area_mm2, reference, ArchAccel, ArchDesc, ArchError, ArchScreen};
use crate::model::EstimateTotals;
use crate::pareto::pareto_indices;
use crate::space::ArchPoint;
use isos_nn::models::Workload;
use isos_sim::energy::{energy_of, EnergyParams};
use isos_stream::StreamConfig;
use isosceles::accel::Accelerator;
use isosceles::IsoscelesConfig;
use isosceles_bench::engine::{CacheStats, SuiteEngine};
use isosceles_bench::stream::run_stream_cached;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What screening keeps per point: the estimate's totals, area and
/// energy — no per-group or per-layer breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Score {
    estimate: EstimateTotals,
    area_mm2: f64,
    energy_mj: f64,
}

/// Scores described points.
fn score(screen: &mut ArchScreen, points: &[ArchPoint]) -> Result<Vec<Score>, ArchError> {
    points
        .iter()
        .map(|p| {
            let estimate = screen
                .totals(&p.desc)
                .map_err(|e| ArchError::new(format!("point `{}`: {e}", p.label)))?;
            Ok(Score {
                estimate,
                area_mm2: desc_area_mm2(&p.desc),
                // All described datapaths use 16-bit accumulators (the
                // schema does not parameterize precision), so the default
                // conversion constants apply to every family.
                energy_mj: estimate.energy_mj(&IsoscelesConfig::default()),
            })
        })
        .collect()
}

/// Point indices by estimated cycles, ascending; ties keep enumeration
/// order.
fn rank(scores: &[Score]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .estimate
            .cycles
            .total_cmp(&scores[b].estimate.cycles)
    });
    order
}

/// Whether two descriptions denote the same machine, names aside.
fn same_machine(a: &ArchDesc, b: &ArchDesc) -> bool {
    let unnamed = |d: &ArchDesc| ArchDesc {
        name: String::new(),
        ..d.clone()
    };
    unnamed(a) == unnamed(b)
}

/// Screens `points` and picks the ones to simulate: the best-estimated
/// `top_k` within the area budget, best first, plus the paper's
/// ISOSceles description ([`reference::isosceles`]) as the anchor every
/// speedup is measured against. A survivor that is the paper's machine
/// under another name is replaced by the anchor rather than simulated
/// twice. Returns the survivors and the number of points over the
/// budget.
fn pick_survivors(
    screen: &mut ArchScreen,
    points: &[ArchPoint],
    opts: &SearchOptions,
) -> Result<(Vec<ArchPoint>, usize), ArchError> {
    let scores = score(screen, points)?;
    let within: Vec<usize> = rank(&scores)
        .into_iter()
        .filter(|&i| opts.budget_mm2.is_none_or(|b| scores[i].area_mm2 <= b))
        .collect();
    let over_budget = scores.len() - within.len();
    let mut picked: Vec<ArchPoint> = within
        .into_iter()
        .take(opts.top_k.max(1))
        .map(|i| points[i].clone())
        .collect();
    let anchor = ArchPoint {
        label: "paper-default".into(),
        desc: reference::isosceles(),
    };
    match picked
        .iter()
        .position(|p| same_machine(&p.desc, &anchor.desc))
    {
        Some(i) if picked[i].desc == anchor.desc => {}
        Some(i) => picked[i] = anchor,
        None => picked.push(anchor),
    }
    Ok((picked, over_budget))
}

/// Builds the survivors' accelerators.
fn accels_of(survivors: &[ArchPoint]) -> Vec<ArchAccel> {
    survivors
        .iter()
        .map(|p| {
            ArchAccel::new(p.desc.clone()).expect("survivors already validated during screening")
        })
        .collect()
}

/// Search parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// How many screened survivors to simulate cycle-level.
    pub top_k: usize,
    /// Area budget in mm² at 45 nm; screened points above it are
    /// discarded before the top-K cut (the paper-default reference point
    /// is always simulated regardless, so speedups stay anchored).
    pub budget_mm2: Option<f64>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            top_k: 8,
            budget_mm2: None,
        }
    }
}

/// One simulated `(design point, batch size)` streaming scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamEvaluatedPoint {
    /// Label from the space (`paper-default` for the anchor).
    pub label: String,
    /// The full description.
    pub desc: ArchDesc,
    /// Batch size of this scenario.
    pub batch: u64,
    /// Stream makespan in cycles.
    pub cycles: u64,
    /// Median request latency in cycles.
    pub p50_cycles: u64,
    /// 95th-percentile request latency in cycles.
    pub p95_cycles: u64,
    /// 99th-percentile request latency in cycles.
    pub p99_cycles: u64,
    /// Throughput in images per second at the modeled clock.
    pub throughput_imgs_per_sec: f64,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Simulated energy for the whole stream in millijoules.
    pub energy_mj: f64,
}

impl StreamEvaluatedPoint {
    /// Average cycles per image (inverse throughput in cycle units).
    pub fn cycles_per_image(&self, requests: u64) -> f64 {
        self.cycles as f64 / requests.max(1) as f64
    }
}

/// A finished streaming search over the `(design point, batch)` grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamSearchResult {
    /// Workload id.
    pub workload: String,
    /// Requests per stream.
    pub requests: u64,
    /// Batch sizes swept.
    pub batches: Vec<u64>,
    /// Points analytically screened.
    pub screened: usize,
    /// Points discarded by the area budget.
    pub over_budget: usize,
    /// Simulated scenarios, sorted by cycles-per-image ascending.
    pub evaluated: Vec<StreamEvaluatedPoint>,
    /// Indices into `evaluated` of the (p99, cycles-per-image, mm²)
    /// Pareto frontier — the latency-vs-throughput trade batching buys.
    pub frontier: Vec<usize>,
}

impl StreamSearchResult {
    /// The frontier as evaluated scenarios.
    pub fn frontier_points(&self) -> Vec<&StreamEvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.evaluated[i]).collect()
    }
}

/// Runs the screen-then-simulate search under a streaming scenario,
/// adding the batch size as an explicit design axis.
///
/// Screening and survivor selection are identical to [`search_arch`]
/// (the arrival process does not change the per-image analytical
/// ranking); each survivor then streams `base.requests` requests at
/// every batch size in `batches`, and the Pareto frontier is extracted
/// from (p99 latency, cycles-per-image, area) — batching trades tail
/// latency against amortized weight traffic, so both must be
/// objectives for the trade to be visible.
///
/// # Errors
///
/// Propagates [`screen_arch`]'s validation failures, and
/// [`run_stream_cached`]'s rejection of `base` or the workload.
pub fn search_stream(
    engine: &SuiteEngine,
    workload: &Workload,
    points: &[ArchPoint],
    opts: &SearchOptions,
    batches: &[u64],
    base: &StreamConfig,
    seed: u64,
) -> Result<StreamSearchResult, ArchError> {
    let batches: Vec<u64> = if batches.is_empty() {
        vec![base.batch]
    } else {
        batches.to_vec()
    };
    let (survivors, over_budget) =
        pick_survivors(&mut ArchScreen::new(&workload.network), points, opts)?;
    let accels = accels_of(&survivors);

    let mut evaluated = survivors
        .iter()
        .zip(&accels)
        .flat_map(|(p, accel)| {
            batches.iter().map(move |&batch| {
                let cfg = StreamConfig { batch, ..*base };
                let (s, _) = run_stream_cached(engine, accel, workload.id, seed, &cfg)
                    .map_err(ArchError::new)?;
                let energy = energy_of(&s.total.activity, &EnergyParams::default());
                Ok(StreamEvaluatedPoint {
                    label: p.label.clone(),
                    desc: p.desc.clone(),
                    batch,
                    cycles: s.total.cycles,
                    p50_cycles: s.p50(),
                    p95_cycles: s.p95(),
                    p99_cycles: s.p99(),
                    throughput_imgs_per_sec: s.throughput_imgs_per_sec(cfg.clock_ghz),
                    area_mm2: accel.area_mm2(),
                    energy_mj: energy.total_mj(),
                })
            })
        })
        .collect::<Result<Vec<StreamEvaluatedPoint>, ArchError>>()?;
    evaluated.sort_by(|a, b| a.cycles.cmp(&b.cycles).then(a.batch.cmp(&b.batch)));

    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|e| {
            vec![
                e.p99_cycles as f64,
                e.cycles_per_image(base.requests),
                e.area_mm2,
            ]
        })
        .collect();
    let frontier = pareto_indices(&objectives);

    Ok(StreamSearchResult {
        workload: workload.id.to_string(),
        requests: base.requests,
        batches,
        screened: points.len(),
        over_budget,
        evaluated,
        frontier,
    })
}

/// One analytically screened described point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchScreenedPoint {
    /// The candidate description.
    pub point: ArchPoint,
    /// Analytical estimate for the workload (via the interpreter),
    /// totals only.
    pub estimate: EstimateTotals,
    /// Total area in mm² at 45 nm, from the described hierarchy.
    pub area_mm2: f64,
    /// Estimated energy per inference in millijoules.
    pub energy_mj: f64,
}

/// Screens described points against `workload` analytically, sorted by
/// estimated cycles ascending.
///
/// # Errors
///
/// Fails on the first description that does not validate (points from
/// [`crate::space::ArchSpace`] or `load_dir` are valid by
/// construction).
pub fn screen_arch(
    workload: &Workload,
    points: &[ArchPoint],
) -> Result<Vec<ArchScreenedPoint>, ArchError> {
    let scores = score(&mut ArchScreen::new(&workload.network), points)?;
    Ok(rank(&scores)
        .into_iter()
        .map(|i| ArchScreenedPoint {
            point: points[i].clone(),
            estimate: scores[i].estimate,
            area_mm2: scores[i].area_mm2,
            energy_mj: scores[i].energy_mj,
        })
        .collect())
}

/// One simulated described point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchEvaluatedPoint {
    /// Label from the space (`paper-default` for the anchor).
    pub label: String,
    /// The full description.
    pub desc: ArchDesc,
    /// Simulated cycles (cycle-level for IS-OS machines, the exact
    /// closed form for the analytic families).
    pub cycles: u64,
    /// Analytical screening estimate, for model-error reporting.
    pub est_cycles: f64,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Simulated energy per inference in millijoules.
    pub energy_mj: f64,
    /// Speedup over the paper-default ISOSceles description.
    pub speedup_vs_default: f64,
}

impl ArchEvaluatedPoint {
    /// Relative error of the analytical estimate vs the simulation.
    pub fn model_error(&self) -> f64 {
        (self.est_cycles - self.cycles as f64).abs() / self.cycles as f64
    }
}

/// A finished described-architecture search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchSearchResult {
    /// Workload id.
    pub workload: String,
    /// Described points analytically screened.
    pub screened: usize,
    /// Points discarded by the area budget.
    pub over_budget: usize,
    /// Simulated points, sorted by simulated cycles ascending.
    pub evaluated: Vec<ArchEvaluatedPoint>,
    /// Indices into `evaluated` of the (cycles, mm², mJ) frontier.
    pub frontier: Vec<usize>,
    /// Engine cache counters for the simulation batch.
    pub cache: CacheStats,
    /// Wall time of screening (scoring every point and picking the
    /// survivors) in milliseconds.
    pub screen_wall_millis: f64,
    /// Wall time of the simulation batch in milliseconds.
    pub sim_wall_millis: f64,
}

impl ArchSearchResult {
    /// The frontier as evaluated points.
    pub fn frontier_points(&self) -> Vec<&ArchEvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.evaluated[i]).collect()
    }
}

/// Runs the screen-then-simulate search over described architectures.
///
/// The analytical model ranks every point; the area budget (if any)
/// and the top-K cut pick the survivors; the suite engine simulates
/// them — in parallel, memoized across repeated searches (described
/// points key the cache by their description hash) — and the Pareto
/// frontier is extracted from the simulated (cycles, mm², mJ). The
/// anchor every speedup is measured against is the paper's ISOSceles
/// description ([`reference::isosceles`]), simulated once.
///
/// # Errors
///
/// Propagates [`screen_arch`]'s validation failures.
pub fn search_arch(
    engine: &SuiteEngine,
    workload: &Workload,
    points: &[ArchPoint],
    opts: &SearchOptions,
    seed: u64,
) -> Result<ArchSearchResult, ArchError> {
    let screen_start = Instant::now();
    let mut screen = ArchScreen::new(&workload.network);
    let (survivors, over_budget) = pick_survivors(&mut screen, points, opts)?;
    let screen_wall_millis = screen_start.elapsed().as_secs_f64() * 1e3;
    let anchor_desc = reference::isosceles();

    let accels = accels_of(&survivors);
    let dyn_accels: Vec<&dyn Accelerator> = accels.iter().map(|a| a as &dyn Accelerator).collect();
    let (grid, stats) = engine.run_matrix(std::slice::from_ref(workload), &dyn_accels, seed);
    let metrics = &grid[0];

    let default_cycles = survivors
        .iter()
        .zip(metrics)
        .find(|(p, _)| p.desc == anchor_desc)
        .map(|(_, m)| m.total.cycles)
        .expect("anchor always simulated");

    let mut evaluated: Vec<ArchEvaluatedPoint> = survivors
        .iter()
        .zip(&accels)
        .zip(metrics)
        .map(|((p, accel), m)| {
            let est = screen
                .totals(&p.desc)
                .expect("survivors already validated during screening");
            let energy = energy_of(&m.total.activity, &EnergyParams::default());
            ArchEvaluatedPoint {
                label: p.label.clone(),
                desc: p.desc.clone(),
                cycles: m.total.cycles,
                est_cycles: est.cycles,
                area_mm2: accel.area_mm2(),
                energy_mj: energy.total_mj(),
                speedup_vs_default: default_cycles as f64 / m.total.cycles as f64,
            }
        })
        .collect();
    evaluated.sort_by_key(|e| e.cycles);

    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|e| vec![e.cycles as f64, e.area_mm2, e.energy_mj])
        .collect();
    let frontier = pareto_indices(&objectives);

    Ok(ArchSearchResult {
        workload: workload.id.to_string(),
        screened: points.len(),
        over_budget,
        evaluated,
        frontier,
        cache: stats.cache(),
        screen_wall_millis,
        sim_wall_millis: stats.wall_millis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ArchSpace;
    use isos_nn::models::suite_workload;

    #[test]
    fn arch_screen_covers_families_and_orders_by_cycles() {
        let w = suite_workload("G58", 1);
        let points = ArchSpace::smoke().enumerate();
        let screened = screen_arch(&w, &points).unwrap();
        assert_eq!(screened.len(), points.len());
        assert!(screened
            .windows(2)
            .all(|p| p[0].estimate.cycles <= p[1].estimate.cycles));
        assert!(screened.iter().all(|s| s.area_mm2 > 0.0));
        assert!(screened.iter().all(|s| s.energy_mj > 0.0));
    }

    #[test]
    fn arch_screen_reports_invalid_points_by_label() {
        let w = suite_workload("G58", 1);
        let mut bad = ArchPoint {
            label: "broken".into(),
            desc: reference::sparten(),
        };
        bad.desc.levels[0].bytes = 0;
        let err = screen_arch(&w, &[bad]).unwrap_err();
        assert!(err.message().contains("broken"), "{err}");
        assert!(err.message().contains("zero size"), "{err}");
    }

    #[test]
    fn stream_search_sweeps_the_batch_axis() {
        use isosceles_bench::engine::{EngineOptions, SuiteEngine};

        let w = suite_workload("G58", 1);
        let points = ArchSpace::is_os_smoke().enumerate();
        let engine = SuiteEngine::new(EngineOptions {
            threads: 2,
            use_cache: false,
            quiet: true,
            ..EngineOptions::default()
        });
        let opts = SearchOptions {
            top_k: 2,
            budget_mm2: None,
        };
        let base = StreamConfig {
            requests: 4,
            ..StreamConfig::default()
        };
        let result = search_stream(&engine, &w, &points, &opts, &[1, 2], &base, 1).unwrap();

        // Every survivor (top-2 + the paper-default anchor) ran at both
        // batch sizes.
        assert_eq!(result.batches, vec![1, 2]);
        assert_eq!(result.screened, 4);
        assert_eq!(result.evaluated.len() % 2, 0);
        assert!(result.evaluated.len() >= 4);
        assert!(!result.frontier.is_empty());
        // The paper-default anchor is always simulated, either as one of
        // the space's own points or as the appended anchor.
        assert!(result
            .evaluated
            .iter()
            .any(|e| e.desc == reference::isosceles()));

        for e in &result.evaluated {
            assert!(e.p50_cycles <= e.p95_cycles && e.p95_cycles <= e.p99_cycles);
            assert!(e.throughput_imgs_per_sec > 0.0);
            assert!(e.area_mm2 > 0.0 && e.energy_mj > 0.0);
        }
        // Batching amortizes weight traffic: for any fixed machine, the
        // batch-2 stream never has a longer makespan than batch-1.
        for e in &result.evaluated {
            if e.batch == 2 {
                let b1 = result
                    .evaluated
                    .iter()
                    .find(|o| o.batch == 1 && o.desc == e.desc)
                    .expect("batch-1 twin");
                assert!(
                    e.cycles <= b1.cycles,
                    "{}: batching slowed it down",
                    e.label
                );
                assert!(e.throughput_imgs_per_sec >= b1.throughput_imgs_per_sec);
            }
        }
    }
}
