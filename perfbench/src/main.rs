//! `isos-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh \
//!     --workload simulate|suite|dse-arch|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. After set-up (repeated
//! [`SETUP_REPEATS`] times, median reported as `setup_s`) the workload
//! runs passes for `--seconds` and checks every result. Every workload
//! reports the same metrics, each measured on its own pass (a 44-cell
//! simulate pass, a warm suite pass, a dse sweep, a serve request). With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` untraced and traced passes alternate, and it carries the
//! per-layer metrics instead, from spans recorded around the benchmark's
//! calls into each layer (see `trace.rs`). Metrics of layers only some
//! workloads reach are printed above the result line but are not part of
//! it. The spans are written to `.perfbench/spans-<workload>-<seed>.json`
//! (Perfetto trace-event JSON). See `perfbench/README.md` for the
//! workloads and the metric map.

mod check;
mod dse;
mod serve;
mod simulate;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Tally;
use stats::{calibration_ms, median, quantile, result_line, rss_peak_mb, timed, Metric};
use trace::Profile;

/// The workloads, as named on the command line and in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = ["simulate", "suite", "dse-arch", "serve"];

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Passes every run makes however short its window, so each percentile
/// has samples.
const MIN_PASSES: usize = 4;

/// Where runs keep scratch state and span files, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench";

/// One benchmark run's settings.
pub struct Run {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run (removed when it ends).
    pub dir: PathBuf,
    /// Engine threads, `serve` workers and clients are sized to this
    /// (the machine's available parallelism).
    pub threads: usize,
}

impl Run {
    /// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and
    /// the median time in reference seconds (see [`stats::timed`]).
    pub fn setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let (out, t) = timed(1, &mut setup);
            last = Some(out);
            times.push(t.ref_ms / 1e3);
        }
        (last.expect("set-up ran"), median(&times))
    }

    /// Calls `pass(i)` for i = 0, 1, ... until the window has closed and
    /// at least [`MIN_PASSES`] passes ran.
    pub fn passes(&self, mut pass: impl FnMut(usize)) {
        let deadline = Instant::now() + self.window;
        let mut i = 0;
        while i < MIN_PASSES || Instant::now() < deadline {
            pass(i);
            i += 1;
        }
    }

    /// Whether pass `i` is traced: in the traced run, every other pass.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Times of the untraced main passes, in reference ms (see
    /// [`stats::timed`]): `pass_ms_p50` and `pass_ms_p90`.
    pub pass_ms: Vec<f64>,
    /// Median set-up time, in reference seconds.
    pub setup_s: f64,
    /// Metrics of this workload alone (of the untraced or the traced
    /// run), printed but not part of the result line.
    pub extra: Vec<Metric>,
    /// Digest of the simulated metrics the workload checked.
    pub digest: u64,
    /// Spans of the traced passes (empty when untraced).
    pub profile: Profile,
    /// Root span name of the workload's main traced passes.
    pub pass_kind: &'static str,
    /// Median wall time of the untraced passes of the same kind, in ms.
    pub untraced_pass_ms: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: out.join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }

    let mut outcome = match args.workload.as_str() {
        "simulate" => simulate::run(&run),
        "suite" => suite::run(&run),
        "dse-arch" => dse::run(&run),
        _ => serve::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.dir);

    let metrics = if run.trace {
        finish_traced(
            &mut outcome,
            &out.join(format!("spans-{}-{}.json", args.workload, args.seed)),
        )
    } else {
        let passes = &outcome.pass_ms;
        vec![
            Metric::lower("pass_ms_p50", "ms", median(passes), passes.len()),
            Metric::lower("pass_ms_p90", "ms", quantile(passes, 0.9), passes.len()),
            Metric::lower("setup_s", "s", outcome.setup_s, SETUP_REPEATS),
            Metric::lower("rss_peak_mb", "MB", rss_peak_mb(), 1),
        ]
    };

    let cal: Vec<f64> = (0..5).map(|_| calibration_ms()).collect();
    println!(
        "workload {} seed {} threads {} digest {:016x} calibration {:.4} ms (reference {} ms)",
        args.workload,
        args.seed,
        run.threads,
        outcome.digest,
        median(&cal),
        stats::REFERENCE_CAL_MS
    );
    for m in &metrics {
        println!("{}", m.line());
    }
    println!("-- {} only (not in the result line):", args.workload);
    for m in &outcome.extra {
        println!("{}", m.line());
    }
    println!(
        "{}",
        result_line(outcome.tally.attempted, outcome.tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Checks the traced passes' conservation, prints where the time went,
/// writes the spans out and returns the per-layer metrics: the
/// simulator layers' (which every workload calls, directly or in its
/// checks' direct simulations) and the `trace.*` ones.
fn finish_traced(outcome: &mut Outcome, spans_path: &Path) -> Vec<Metric> {
    let profile = &outcome.profile;
    outcome
        .tally
        .record("traced passes conserve", profile.violations());

    let layers = profile.layers();
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls as usize);
    let pipeline_us = layers
        .get("pipeline.sim")
        .map_or(0.0, |l| l.self_ns as f64 / 1e3);
    let mut metrics: Vec<Metric> = [
        ("nn.build_ms", "nn.build"),
        ("mapping.map_ms", "mapping.map"),
        ("pipeline.sim_ms", "pipeline.sim"),
    ]
    .into_iter()
    .map(|(metric, span)| Metric::lower(metric, "ms", profile.mean_ms(span), calls(span)))
    .collect();
    metrics.extend([
        Metric::lower(
            "pipeline.groups",
            "count",
            profile.count("pipeline.groups") / calls("mapping.map").max(1) as f64,
            calls("mapping.map"),
        ),
        Metric::higher(
            "pipeline.cycles_per_host_us",
            "cycles/us",
            profile.count("pipeline.cycles") / pipeline_us.max(1e-9),
            calls("pipeline.sim"),
        ),
    ]);

    let passes: Vec<_> = profile
        .passes()
        .into_iter()
        .filter(|p| p.kind == outcome.pass_kind)
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    let others: Vec<f64> = passes.iter().map(|p| p.other_ns as f64 / 1e6).collect();
    let traced_ms = median(&walls);
    metrics.extend([
        Metric::lower("trace.pass_ms", "ms", traced_ms, walls.len()),
        Metric::lower("trace.other_ms", "ms", stats::mean(&others), others.len()),
        Metric::lower(
            "trace.overhead_ms",
            "ms",
            traced_ms - outcome.untraced_pass_ms,
            walls.len(),
        ),
    ]);

    let all_passes = profile.passes();
    let wall_ns: u64 = all_passes.iter().map(|p| p.wall_ns).sum();
    let other_ns: u64 = all_passes.iter().map(|p| p.other_ns).sum();
    eprintln!(
        "where the time goes ({} traced passes, {:.1} ms):",
        all_passes.len(),
        wall_ns as f64 / 1e6
    );
    eprintln!(
        "  {:<22} {:>12} {:>7} {:>8} {:>11}",
        "layer", "self ms", "share", "calls", "ms/call"
    );
    let mut rows: Vec<_> = profile.layers().into_iter().collect();
    rows.push((
        "other",
        trace::Layer {
            self_ns: other_ns,
            calls: all_passes.len() as u64,
        },
    ));
    for (name, l) in rows {
        eprintln!(
            "  {:<22} {:>12.3} {:>6.1}% {:>8} {:>11.4}",
            name,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / wall_ns.max(1) as f64,
            l.calls,
            l.self_ns as f64 / 1e6 / l.calls.max(1) as f64
        );
    }
    if let Err(e) = profile.write(spans_path) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    metrics
}
