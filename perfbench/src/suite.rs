//! `suite`: what `export_results` does, `SuiteEngine::run_suite` with an
//! engine thread per core followed by `Report::write_all` and the figure
//! CSVs. Passes alternate between a cold pass into an empty cache
//! directory and a warm pass over the full one, so the cache dominates:
//! writes in cold passes, reads in warm ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use isos_nn::models::{suite_workload, SUITE_IDS};
use isos_sim::energy::{energy_of, EnergyParams};
use isos_sim::metrics::NetworkMetrics;
use isosceles_bench::cache::{CacheStore, EntryMeta};
use isosceles_bench::engine::{job_key, EngineOptions, SuiteEngine, WorkloadId};
use isosceles_bench::report::{CsvTable, Report};
use isosceles_bench::suite::SuiteRow;

use crate::check::{digest, expect_same, Models, Tally};
use crate::stats::{median, timed, Metric, Timing};
use crate::trace::{Profile, Tracer};
use crate::{Outcome, Run};

/// Writes what `export_results` writes: the report tables plus one CSV
/// per paper figure.
fn write_report(report: &Report, dir: &Path) -> std::io::Result<()> {
    report.write_all(dir)?;
    let params = EnergyParams::default();
    type Row = fn(&SuiteRow) -> Vec<String>;
    let figures: [(&str, &[&str], Row); 5] = [
        (
            "fig14a_speedup",
            &["net", "sparten_speedup", "isosceles_speedup"],
            |r| {
                vec![
                    format!("{:.3}", r.sparten_speedup_vs_fused()),
                    format!("{:.3}", r.speedup_vs_fused()),
                ]
            },
        ),
        (
            "fig14b_cycles",
            &["net", "fused_cycles", "sparten_cycles", "isosceles_cycles"],
            |r| {
                [&r.fused, &r.sparten, &r.isosceles]
                    .map(|m| m.total.cycles.to_string())
                    .to_vec()
            },
        ),
        (
            "fig14c_traffic",
            &[
                "net",
                "fused_w",
                "fused_a",
                "sparten_w",
                "sparten_a",
                "isos_w",
                "isos_a",
            ],
            |r| {
                let f = r.fused.total.total_traffic();
                [&r.fused, &r.sparten, &r.isosceles]
                    .iter()
                    .flat_map(|m| [m.total.weight_traffic / f, m.total.act_traffic / f])
                    .map(|x| format!("{x:.4}"))
                    .collect()
            },
        ),
        (
            "fig15_bandwidth",
            &["net", "fused_bw", "sparten_bw", "isosceles_bw"],
            |r| {
                [&r.fused, &r.sparten, &r.isosceles]
                    .map(|m| format!("{:.3}", m.total.bw_util.ratio()))
                    .to_vec()
            },
        ),
        (
            "fig16_mac_util",
            &["net", "fused_mac", "sparten_mac", "isosceles_mac"],
            |r| {
                [&r.fused, &r.sparten, &r.isosceles]
                    .map(|m| format!("{:.3}", m.total.mac_util.ratio()))
                    .to_vec()
            },
        ),
    ];
    for (name, headers, cells) in figures {
        let mut table = CsvTable::new(headers);
        for r in &report.rows {
            let mut row = vec![r.id.to_string()];
            row.extend(cells(r));
            table.push_row(row);
        }
        table.write(dir, name)?;
    }
    let mut fig17 = CsvTable::new(&["net", "dram_mj", "sram_mj", "compute_mj", "other_mj"]);
    for r in &report.rows {
        let e = energy_of(&r.isosceles.total.activity, &params);
        let mut row = vec![r.id.to_string()];
        row.extend([e.dram_mj, e.sram_mj, e.compute_mj, e.other_mj].map(|x| format!("{x:.4}")));
        fig17.push_row(row);
    }
    fig17.write(dir, "fig17_energy")?;
    Ok(())
}

/// Scratch directories of the run.
struct Dirs {
    cache: PathBuf,
    report: PathBuf,
}

/// What one untraced pass leaves for the checks.
struct PassResult {
    rows: Vec<SuiteRow>,
    hits: usize,
    misses: usize,
    computes: usize,
    quarantined: u64,
    wrote: bool,
}

/// One `export_results` pass over the cache directory, as a fresh
/// process would run it: a new engine, `run_suite`, then the report.
fn pass(run: &Run, dirs: &Dirs) -> PassResult {
    let engine = SuiteEngine::new(EngineOptions {
        threads: run.threads,
        use_cache: true,
        cache_dir: dirs.cache.clone(),
        cache_bytes: None,
        quiet: true,
    });
    let suite = engine.run_suite(run.seed);
    let report = Report::new(suite.rows);
    let wrote = write_report(&report, &dirs.report).is_ok();
    PassResult {
        rows: report.rows,
        hits: suite.stats.hits,
        misses: suite.stats.misses,
        computes: engine.lifetime_computes(),
        quarantined: engine.cache_store().map_or(0, |s| s.counters().quarantined),
        wrote,
    }
}

/// Per-network cache-hit and recompute times seen by traced passes.
#[derive(Default)]
struct NetTimes {
    hit_ms: f64,
    hits: u32,
    recompute_ms: f64,
    recomputes: u32,
}

/// The same pass one layer call at a time, on this thread.
fn traced_pass(
    t: &mut Tracer,
    models: &Models,
    run: &Run,
    dirs: &Dirs,
    cold: bool,
    nets: &mut BTreeMap<&'static str, NetTimes>,
) -> (Vec<SuiteRow>, u64, bool) {
    let seed = run.seed;
    t.pass(if cold { "suite.cold" } else { "suite.warm" }, |t| {
        let store = t.span("cache.open", |_| CacheStore::open(dirs.cache.clone(), None));
        let mut rows = Vec::with_capacity(SUITE_IDS.len());
        for id in SUITE_IDS {
            let w = t.span("nn.build", |_| suite_workload(id, seed));
            let times = nets.entry(id).or_default();
            let mut out = Vec::with_capacity(4);
            for (i, accel) in models.all().into_iter().enumerate() {
                let started = Instant::now();
                let (key, meta) = t.span("engine.key", |_| {
                    let id = WorkloadId::new(id);
                    let meta = EntryMeta {
                        accel: accel.name().to_string(),
                        accel_key: accel.cache_key(),
                        workload: id.clone(),
                        seed,
                    };
                    (job_key(accel, &id, seed), meta)
                });
                let metrics = match t.span("cache.load", |_| store.load(key, &meta)) {
                    Some(m) => {
                        times.hit_ms += started.elapsed().as_secs_f64() * 1e3;
                        times.hits += 1;
                        m
                    }
                    None => {
                        t.relabel_last("cache.probe");
                        let m = models.simulate_layers(t, i, &w.network, seed);
                        t.span("cache.store", |_| store.store(key, &meta, &m));
                        times.recompute_ms += started.elapsed().as_secs_f64() * 1e3;
                        times.recomputes += 1;
                        m
                    }
                };
                out.push(metrics);
            }
            let [isosceles, single, sparten, fused]: [NetworkMetrics; 4] =
                out.try_into().expect("four models");
            rows.push(SuiteRow {
                id: WorkloadId::new(id),
                isosceles,
                single,
                sparten,
                fused,
            });
        }
        let report = Report::new(rows);
        let wrote = t.span("report.write", |_| {
            write_report(&report, &dirs.report).is_ok()
        });
        (report.rows, store.counters().quarantined, wrote)
    })
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let models = Models::default();
    let dirs = Dirs {
        cache: run.dir.join("suite-cache"),
        report: run.dir.join("suite-report"),
    };
    // Set-up: the network builds and direct simulations of the reference.
    let (reference, setup_s) = run.setup(|| crate::simulate::pass(&models, run.seed));
    let job = |k: usize| format!("{}/{}", SUITE_IDS[k / 4], Models::NAMES[k % 4]);
    let check_rows = |problems: &mut Vec<String>, rows: &[SuiteRow]| {
        let got = rows.iter().flat_map(|r| r.models().map(|(_, m)| m));
        for (k, (got, want)) in got.zip(&reference).enumerate() {
            expect_same(problems, &job(k), got, want);
        }
    };

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut nets = BTreeMap::new();
    let (mut cold_times, mut warm_times) = (Vec::<Timing>::new(), Vec::<Timing>::new());
    let (mut computes, mut jobs, mut quarantined, mut entry_kb) = (0, 0, 0, Vec::new());
    run.passes(|i| {
        let cold = i % 2 == 0;
        if cold {
            let _ = std::fs::remove_dir_all(&dirs.cache);
        }
        let mut problems = Vec::new();
        if run.trace && (i / 2) % 2 == 1 {
            let (rows, bad, wrote) = traced_pass(&mut tracer, &models, run, &dirs, cold, &mut nets);
            check_rows(&mut problems, &rows);
            if bad > 0 || !wrote {
                problems.push(format!(
                    "{bad} entries quarantined, report written: {wrote}"
                ));
            }
            quarantined += bad;
        } else {
            let (p, t) = timed(run.threads, || pass(run, &dirs));
            if cold {
                cold_times.push(t);
            } else {
                warm_times.push(t);
            }
            check_rows(&mut problems, &p.rows);
            let expected = if cold { (0, 44) } else { (44, 0) };
            if (p.hits, p.misses) != expected || p.quarantined > 0 || !p.wrote {
                problems.push(format!(
                    "{} hits, {} misses, {} quarantined, report written: {}",
                    p.hits, p.misses, p.quarantined, p.wrote
                ));
            }
            computes += p.computes;
            jobs += p.rows.len() * 4;
            quarantined += p.quarantined;
        }
        if cold {
            let usage = CacheStore::open(dirs.cache.clone(), None).usage();
            entry_kb.push(usage.bytes as f64 / 1024.0 / usage.entries.max(1) as f64);
        }
        tally.record(
            if cold {
                "cold suite pass"
            } else {
                "warm suite pass"
            },
            problems,
        );
    });

    let mut profile = Profile::default();
    profile.absorb(tracer);
    let ref_ms = |ts: &[Timing]| ts.iter().map(|t| t.ref_ms).collect::<Vec<_>>();
    let extra = if run.trace {
        eprintln!("cache hit versus recompute per network (traced passes, ms per job):");
        for (id, n) in &nets {
            eprintln!(
                "  {id}  hit {:>8.3}  recompute {:>8.3}",
                n.hit_ms / f64::from(n.hits.max(1)),
                n.recompute_ms / f64::from(n.recomputes.max(1))
            );
        }
        let layers = profile.layers();
        let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls as usize);
        let loads = calls("cache.load") + calls("cache.probe");
        let mut m: Vec<Metric> = [
            ("baselines.sim_ms", "baselines.sim"),
            ("cache.open_ms", "cache.open"),
            ("cache.load_ms", "cache.load"),
            ("cache.store_ms", "cache.store"),
            ("report.write_ms", "report.write"),
        ]
        .into_iter()
        .map(|(metric, span)| Metric::lower(metric, "ms", profile.mean_ms(span), calls(span)))
        .collect();
        m.extend([
            Metric::lower(
                "engine.computes_per_job",
                "ratio",
                computes as f64 / jobs.max(1) as f64,
                jobs,
            ),
            Metric::lower("cache.entry_kb", "KiB", median(&entry_kb), entry_kb.len()),
            Metric::higher(
                "cache.hit_ratio",
                "ratio",
                calls("cache.load") as f64 / loads.max(1) as f64,
                loads,
            ),
            Metric::lower(
                "cache.quarantined",
                "count",
                quarantined as f64,
                tally.attempted as usize,
            ),
        ]);
        m
    } else {
        // Cold passes create, rename and delete ~180 small files each;
        // on a shared virtual disk their medians moved by 35-65% between
        // runs minutes apart, past any regression bound, so the cold time
        // is printed but not part of the result: `pass_ms_*` are the warm
        // passes'.
        let cold = ref_ms(&cold_times);
        vec![Metric::lower(
            "suite_cold_ms_p50",
            "ms",
            median(&cold),
            cold.len(),
        )]
    };
    Outcome {
        tally,
        pass_ms: ref_ms(&warm_times),
        setup_s,
        extra,
        digest: digest(&reference),
        profile,
        pass_kind: "suite.warm",
        untraced_pass_ms: median(&warm_times.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
    }
}
