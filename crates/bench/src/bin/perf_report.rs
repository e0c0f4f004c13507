//! Wall-clock performance report over the workload × model matrix.
//!
//! ```text
//! perf_report [--smoke] [--out PATH] [--seed N] [--warmup N]
//!             [--repeat N] [--baseline BENCH_N.json]
//!             [--regress-pct P]
//! ```
//!
//! Times every suite workload on every accelerator model and writes the
//! per-job timings as JSON, by default to the gitignored
//! `results/perf_report.json`. Committed at the repo root as
//! `BENCH_<PR>.json` (`--out BENCH_<PR>.json`), these reports form the
//! perf trajectory of the codebase: compare the same cell across reports
//! to see a kernel change's effect on end-to-end suite time. Absolute
//! numbers are machine-dependent; the trajectory (and the within-report
//! ratios between models) is the signal.
//!
//! # Timing methodology (schema v3)
//!
//! Jobs run **sequentially** on one thread — never on the engine's worker
//! pool — so a cell's wall time is uncontended. Each cell does
//! `--warmup` untimed simulations (page in the code and the allocator),
//! then reports the **minimum** over `--repeat` timed calls: the min is
//! the standard noise-rejecting statistic for a deterministic
//! computation, because scheduling interference only ever adds time.
//! The timed region is exactly one `Accelerator::simulate` call — no
//! cache-key hashing, metadata construction, or metrics cloning (the
//! overheads the engine's per-job stats include).
//!
//! `--smoke` runs only the smallest workload (G58), so CI checks the
//! schema in seconds. Its timings are no baseline, but they are gated:
//! `scripts/check.sh` compares a smoke run with the committed
//! `BENCH_10.json` at `--regress-pct 150`, a coarse bound that catches
//! an order-of-magnitude slowdown and nothing finer.
//!
//! # Baseline comparison
//!
//! `--baseline BENCH_N.json` loads a prior report (v1, v2 or v3) and prints
//! per-row speedup ratios (`baseline millis / new millis`) for every
//! matching `(workload, model)` cell, plus the geometric-mean speedup of
//! the `isosceles` rows. The exit status is non-zero if any `isosceles`
//! row regresses by more than `--regress-pct` percent (default 10), so
//! `scripts/check.sh` can use a smoke run as a perf-regression gate.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use isos_nn::models::{paper_suite, suite_workload};
use isosceles_bench::cli::Args;
use isosceles_bench::suite::SEED;
use isosceles_bench::trace::{accel_by_name, MODEL_NAMES};
use serde::{Deserialize, Serialize};

/// Schema tag stored in the report so downstream tooling can detect
/// incompatible layout changes. `v2` switched from engine-pool job
/// timings to sequential min-of-`--repeat` simulate-only timings; `v3`
/// dropped the `threads`/`effective_threads` fields with the run-level
/// pool they described.
pub const REPORT_SCHEMA: &str = "isosceles-perf-report/v3";

/// Default output path: under the gitignored `results/`, so a run never
/// overwrites a committed `BENCH_*.json` baseline unless `--out` names it.
const DEFAULT_OUT: &str = "results/perf_report.json";

/// Untimed simulations per cell before measurement starts.
const DEFAULT_WARMUP: usize = 1;

/// Timed simulations per cell; the minimum is reported.
const DEFAULT_REPEAT: usize = 5;

/// Allowed slowdown on `isosceles` rows before `--baseline` fails.
const DEFAULT_REGRESS_PCT: f64 = 10.0;

/// The model whose rows the baseline gate and geomean apply to.
const GATED_MODEL: &str = "isosceles";

/// One timed `(workload, model)` simulation.
#[derive(Debug, Serialize, Deserialize)]
struct Timing {
    /// Suite workload id (e.g. `R81`).
    workload: String,
    /// Accelerator model name (e.g. `isosceles`).
    model: String,
    /// Minimum wall time of one simulation in milliseconds.
    millis: f64,
}

/// The full report as serialized to disk.
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    /// Layout tag ([`REPORT_SCHEMA`]).
    schema: String,
    /// Sparsity-pattern seed the matrix ran with.
    seed: u64,
    /// Whether this was a `--smoke` run (subset of workloads).
    smoke: bool,
    /// Untimed warmup simulations per cell.
    warmup: usize,
    /// Timed simulations per cell (minimum reported).
    repeats: usize,
    /// Per-job wall-clock timings, workload-major in suite order.
    timings: Vec<Timing>,
    /// End-to-end wall time of the whole matrix in milliseconds
    /// (warmups and repeats included).
    total_millis: f64,
}

/// A prior report's timings, keyed by `(workload, model)`.
///
/// Parsed from the JSON tree rather than a typed struct so every layout
/// (v1 engine timings, v2 and v3 min-of-k) loads; only `schema` and the
/// `timings` rows are required.
struct Baseline {
    schema: String,
    rows: Vec<(String, String, f64)>,
}

/// Loads a baseline report.
///
/// # Errors
///
/// Errors on unreadable files, malformed JSON, or a missing/foreign
/// schema tag.
fn load_baseline(path: &PathBuf) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let root = serde::json::parse(&text).map_err(|e| e.to_string())?;
    let schema = root
        .field("schema")
        .ok()
        .and_then(|v| v.as_str())
        .ok_or("missing schema tag")?
        .to_string();
    if !schema.starts_with("isosceles-perf-report/") {
        return Err(format!("not a perf report: schema `{schema}`"));
    }
    let timings = root.field("timings").map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut i = 0;
    while let Ok(row) = timings.index(i) {
        let get = |name: &str| {
            row.field(name)
                .ok()
                .and_then(|v| v.as_str())
                .map(str::to_string)
        };
        let millis = row
            .field("millis")
            .and_then(|v| v.as_f64())
            .map_err(|e| format!("row {i}: {e}"))?;
        match (get("workload"), get("model")) {
            (Some(w), Some(m)) => rows.push((w, m, millis)),
            _ => return Err(format!("row {i}: missing workload/model")),
        }
        i += 1;
    }
    Ok(Baseline { schema, rows })
}

/// Compares `report` against `baseline` row by row.
///
/// Prints a speedup table and the `isosceles` geomean; returns the rows
/// (workload ids) whose `isosceles` timing regressed past `regress_pct`.
fn compare(report: &Report, baseline: &Baseline, regress_pct: f64) -> Vec<String> {
    let limit = 1.0 + regress_pct / 100.0;
    let mut regressed = Vec::new();
    let mut log_sum = 0.0;
    let mut gated = 0usize;
    eprintln!("workload        model      baseline      new  speedup");
    for t in &report.timings {
        let base = baseline
            .rows
            .iter()
            .find(|(w, m, _)| *w == t.workload && *m == t.model);
        let Some((_, _, base_ms)) = base else {
            eprintln!(
                "{:<10} {:>12} {:>9} {:>8.3}        —",
                t.workload, t.model, "—", t.millis
            );
            continue;
        };
        let speedup = base_ms / t.millis;
        let flag = if t.model == GATED_MODEL && t.millis > base_ms * limit {
            regressed.push(t.workload.clone());
            "  REGRESSED"
        } else {
            ""
        };
        eprintln!(
            "{:<10} {:>12} {:>9.3} {:>8.3} {:>7.2}x{flag}",
            t.workload, t.model, base_ms, t.millis, speedup
        );
        if t.model == GATED_MODEL {
            log_sum += speedup.ln();
            gated += 1;
        }
    }
    if gated > 0 {
        eprintln!(
            "geomean speedup ({GATED_MODEL}, {gated} rows) vs {}: {:.2}x",
            baseline.schema,
            (log_sum / gated as f64).exp()
        );
    }
    regressed
}

/// The usage text.
fn usage_text() -> String {
    format!(
        "usage: perf_report [--smoke] [--out PATH] [--seed N] [--warmup N]\n\
         \x20                  [--repeat N] [--baseline PATH] [--regress-pct P]\n\
         \n\
         --smoke          time only G58 (quick check; timings fit only a coarse gate)\n\
         --out PATH       output JSON path (default {DEFAULT_OUT})\n\
         --seed N         sparsity-pattern seed (default {SEED})\n\
         --warmup N       untimed simulations per cell (default {DEFAULT_WARMUP})\n\
         --repeat N       timed simulations per cell, min reported (default {DEFAULT_REPEAT})\n\
         --baseline PATH  compare against a prior report; exit 1 if any\n\
         \x20                `{GATED_MODEL}` row slows down more than --regress-pct\n\
         --regress-pct P  allowed `{GATED_MODEL}` slowdown percent (default {DEFAULT_REGRESS_PCT})"
    )
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut smoke = false;
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut seed = SEED;
    let mut warmup = DEFAULT_WARMUP;
    let mut repeats = DEFAULT_REPEAT;
    let mut baseline_path: Option<PathBuf> = None;
    let mut regress_pct = DEFAULT_REGRESS_PCT;
    args.each(|args, flag| {
        match flag {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.value()?),
            "--seed" => seed = args.parse("an integer", |_| true)?,
            "--warmup" => warmup = args.parse("an integer", |_| true)?,
            "--repeat" => repeats = args.parse("an integer >= 1", |&n| n >= 1)?,
            "--baseline" => baseline_path = Some(PathBuf::from(args.value()?)),
            "--regress-pct" => {
                regress_pct = args.parse("a number >= 0", |&p: &f64| p >= 0.0)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    });

    let baseline = baseline_path.map(|p| {
        load_baseline(&p).unwrap_or_else(|e| args.fail(&format!("--baseline {}: {e}", p.display())))
    });

    let workloads = if smoke {
        vec![suite_workload("G58", seed)]
    } else {
        paper_suite(seed)
    };
    let models: Vec<_> = MODEL_NAMES
        .iter()
        .map(|name| accel_by_name(name).expect("model table entry resolves"))
        .collect();

    eprintln!(
        "perf_report: timing {} workloads x {} models sequentially \
         (warmup {warmup}, min of {repeats})",
        workloads.len(),
        models.len()
    );

    let wall = Instant::now();
    let mut timings = Vec::with_capacity(workloads.len() * models.len());
    for w in &workloads {
        for accel in &models {
            for _ in 0..warmup {
                std::hint::black_box(accel.simulate(&w.network, seed));
            }
            let mut best = f64::INFINITY;
            for _ in 0..repeats {
                let t = Instant::now();
                std::hint::black_box(accel.simulate(&w.network, seed));
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            timings.push(Timing {
                workload: w.id.to_string(),
                model: accel.name().to_string(),
                millis: best,
            });
        }
    }
    let report = Report {
        schema: REPORT_SCHEMA.to_string(),
        seed,
        smoke,
        warmup,
        repeats,
        timings,
        total_millis: wall.elapsed().as_secs_f64() * 1e3,
    };

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perf_report: cannot create {}: {e}", dir.display());
            exit(1);
        }
    }
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("perf_report: cannot write {}: {e}", out.display());
        exit(1);
    }
    eprintln!(
        "perf_report: wrote {} ({} timings, {:.0} ms total)",
        out.display(),
        report.timings.len(),
        report.total_millis
    );

    if let Some(b) = baseline {
        let regressed = compare(&report, &b, regress_pct);
        if !regressed.is_empty() {
            eprintln!(
                "perf_report: {} {GATED_MODEL} row(s) regressed >{regress_pct}%: {}",
                regressed.len(),
                regressed.join(", ")
            );
            exit(1);
        }
    }
}
