//! Streaming-inference report: throughput and tail latency per
//! workload × model.
//!
//! ```text
//! stream_run [--smoke] [--net IDS] [--model NAMES] [--requests N]
//!            [--batch B] [--arrival burst|periodic:N|poisson:F]
//!            [--policy greedy|waitfull] [--seed N] [--out PATH]
//!            [--threads N] [--no-cache] [--cache-bytes N[k|m|g]]
//! ```
//!
//! Streams `--requests` inference requests (default 256, each with its
//! own activation-sparsity draw) through every selected workload ×
//! model pair via the shared [`SuiteEngine`] cache, and writes one JSON
//! report with throughput (img/s at the modeled clock), p50/p95/p99
//! latency, queue depth, and the conserved traffic/energy totals per
//! row. `--smoke` shrinks the run to G58 × 8 requests so CI can
//! validate the schema in seconds.

use std::path::PathBuf;
use std::process::exit;

use isos_sim::energy::{energy_of, EnergyParams};
use isos_stream::{Arrival, BatchPolicy, StreamConfig, StreamMetrics};
use isosceles_bench::cli::Args;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::stream::run_stream_cached;
use isosceles_bench::suite::SEED;
use isosceles_bench::trace::{accel_by_name, MODEL_NAMES};
use serde::{Deserialize, Serialize};

/// Schema tag stored in the report so downstream tooling can detect
/// incompatible layout changes.
pub const REPORT_SCHEMA: &str = "isosceles-stream-report/v1";

/// One streamed `(workload, model)` scenario.
#[derive(Debug, Serialize, Deserialize)]
struct StreamRowOut {
    /// Suite workload id (e.g. `R81`).
    workload: String,
    /// Accelerator model name (e.g. `isosceles`).
    model: String,
    /// Whether the row came from the result cache.
    cache_hit: bool,
    /// Stream makespan in cycles.
    cycles: u64,
    /// Throughput in images per second at the modeled clock.
    throughput_imgs_per_sec: f64,
    /// Median latency in cycles.
    p50_cycles: u64,
    /// 95th-percentile latency in cycles.
    p95_cycles: u64,
    /// 99th-percentile latency in cycles.
    p99_cycles: u64,
    /// Mean end-to-end latency in cycles.
    mean_latency_cycles: f64,
    /// Cycles the accelerator serviced requests.
    busy_cycles: u64,
    /// Cycles the accelerator idled on an empty queue.
    idle_cycles: u64,
    /// Cycles spent holding for batch formation.
    formation_cycles: u64,
    /// Batches dispatched.
    batches: u64,
    /// Largest queue depth observed.
    queue_max_depth: u64,
    /// Time-weighted mean queue depth.
    queue_mean_depth: f64,
    /// Total off-chip weight traffic in bytes (after amortization).
    weight_traffic: f64,
    /// Total off-chip activation traffic in bytes.
    act_traffic: f64,
    /// Total energy in millijoules.
    energy_mj: f64,
}

/// The full report as serialized to disk.
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    /// Layout tag ([`REPORT_SCHEMA`]).
    schema: String,
    /// Base seed (request `r` perturbs it by `r`).
    seed: u64,
    /// Requests per stream.
    requests: u64,
    /// Batch size.
    batch: u64,
    /// Arrival-process spelling (`burst`, `periodic:N`, `poisson:F`).
    arrival: String,
    /// Batch-formation policy spelling.
    policy: String,
    /// Whether this was a `--smoke` run (subset of workloads).
    smoke: bool,
    /// One row per workload × model, workload-major in suite order.
    rows: Vec<StreamRowOut>,
}

/// The usage text.
fn usage_text() -> String {
    format!(
        "usage: stream_run [--smoke] [--net IDS] [--model NAMES] [--requests N] \
         [--batch B]\n\
         \x20                 [--arrival burst|periodic:N|poisson:F] [--policy greedy|waitfull]\n\
         \x20                 [--seed N] [--out PATH] [--threads N] [--no-cache]\n\
         \x20                 [--cache-bytes N[k|m|g]]\n\
         \n\
         --smoke          G58 x 8 requests (schema check)\n\
         --net IDS        comma-separated workload ids (default: full suite)\n\
         --model NAMES    comma-separated model names (default: all four)\n\
         --requests N     stream length (default 256)\n\
         --batch B        batch size (default 1)\n\
         --arrival A      arrival process (default burst)\n\
         --policy P       batch-formation policy (default greedy)\n\
         --seed N         base sparsity seed (default {SEED})\n\
         --out PATH       write the JSON report here (default: stdout)\n\
         --threads N      engine worker threads (also ISOS_THREADS): the\n\
         \x20                 requests of each stream are simulated N at a time\n\
         --no-cache       disable the result cache (also ISOS_NO_CACHE)\n\
         --cache-bytes N  bound the result cache, e.g. 512m (also ISOS_CACHE_BYTES)"
    )
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut smoke = false;
    let mut nets: Vec<String> = Vec::new();
    let mut models: Vec<String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut seed = SEED;
    let mut cfg = StreamConfig::default();
    let mut engine_opts = EngineOptions::from_env().unwrap_or_else(|e| args.fail(&e));
    let list = |v: String| -> Vec<String> { v.split(',').map(|s| s.trim().to_string()).collect() };

    args.each(|args, flag| {
        match flag {
            "--smoke" => smoke = true,
            "--net" => nets = list(args.value()?),
            "--model" => models = list(args.value()?),
            "--requests" => cfg.requests = args.parse("an integer", |_| true)?,
            "--batch" => cfg.batch = args.parse("an integer", |_| true)?,
            "--arrival" => {
                cfg.arrival = Arrival::parse(&args.value()?).map_err(|e| format!("{flag}: {e}"))?;
            }
            "--policy" => {
                cfg.policy =
                    BatchPolicy::parse(&args.value()?).map_err(|e| format!("{flag}: {e}"))?;
            }
            "--seed" => seed = args.parse("an integer", |_| true)?,
            "--out" => out = Some(PathBuf::from(args.value()?)),
            _ => return engine_opts.parse_flag(args, flag),
        }
        Ok(true)
    });

    if smoke {
        if nets.is_empty() {
            nets = vec!["G58".to_string()];
        }
        cfg.requests = cfg.requests.min(8);
    }
    if nets.is_empty() {
        nets = isos_nn::models::SUITE_IDS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    if models.is_empty() {
        models = MODEL_NAMES.iter().map(|s| s.to_string()).collect();
    }
    if let Err(e) = cfg.validate() {
        args.fail(&e);
    }
    for id in &nets {
        if !isos_nn::models::SUITE_IDS.contains(&id.as_str()) {
            args.fail(&format!("unknown workload id {id:?}"));
        }
    }

    let engine = SuiteEngine::new(engine_opts);
    let params = EnergyParams::default();
    eprintln!(
        "stream_run: {} requests (batch {}, {} arrivals, {} policy) x {} workloads x {} models",
        cfg.requests,
        cfg.batch,
        cfg.arrival.spell(),
        cfg.policy.spell(),
        nets.len(),
        models.len()
    );

    let mut rows = Vec::with_capacity(nets.len() * models.len());
    for id in &nets {
        for name in &models {
            let Some(accel) = accel_by_name(name) else {
                args.fail(&format!("unknown model {name:?}"));
            };
            let (s, cache_hit) = run_stream_cached(&engine, accel.as_ref(), id, seed, &cfg)
                .map_or_else(|e| args.fail(&e), |(s, record)| (s, record.cache_hit));
            rows.push(row_out(id, accel.name(), cache_hit, &s, &cfg, &params));
        }
    }

    let report = Report {
        schema: REPORT_SCHEMA.to_string(),
        seed,
        requests: cfg.requests,
        batch: cfg.batch,
        arrival: cfg.arrival.spell(),
        policy: cfg.policy.spell().to_string(),
        smoke,
        rows,
    };
    let text = serde::json::to_string(&report);
    match &out {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("stream_run: cannot create {}: {e}", dir.display());
                    exit(1);
                }
            }
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("stream_run: cannot write {}: {e}", path.display());
                exit(1);
            }
            eprintln!(
                "stream_run: wrote {} ({} rows)",
                path.display(),
                report.rows.len()
            );
        }
        None => println!("{text}"),
    }
}

/// Flattens one stream result into its report row, rechecking the
/// conservation invariants so a bad row can never be written quietly.
fn row_out(
    workload: &str,
    model: &str,
    cache_hit: bool,
    s: &StreamMetrics,
    cfg: &StreamConfig,
    params: &EnergyParams,
) -> StreamRowOut {
    assert_eq!(
        s.service_sum(),
        s.busy_cycles,
        "{workload}/{model}: span/busy conservation"
    );
    assert_eq!(
        s.busy_cycles + s.idle_cycles + s.formation_cycles,
        s.total.cycles,
        "{workload}/{model}: server-time conservation"
    );
    let n = s.requests.len().max(1) as f64;
    let mean_latency = s.requests.iter().map(|r| r.latency() as f64).sum::<f64>() / n;
    StreamRowOut {
        workload: workload.to_string(),
        model: model.to_string(),
        cache_hit,
        cycles: s.total.cycles,
        throughput_imgs_per_sec: s.throughput_imgs_per_sec(cfg.clock_ghz),
        p50_cycles: s.p50(),
        p95_cycles: s.p95(),
        p99_cycles: s.p99(),
        mean_latency_cycles: mean_latency,
        busy_cycles: s.busy_cycles,
        idle_cycles: s.idle_cycles,
        formation_cycles: s.formation_cycles,
        batches: s.batches,
        queue_max_depth: s.queue.max_depth,
        queue_mean_depth: s.queue.mean_depth,
        weight_traffic: s.total.weight_traffic,
        act_traffic: s.total.act_traffic,
        energy_mj: energy_of(&s.total.activity, params).total_mj(),
    }
}
