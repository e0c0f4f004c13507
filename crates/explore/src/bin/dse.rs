//! Design-space exploration driver.
//!
//! Screens a design space analytically, simulates the top-K survivors
//! through the parallel cached suite engine, and writes the (cycles,
//! mm², mJ) Pareto frontier as JSON + CSV + markdown to
//! `dse-<net>.*`. With `--stream` each survivor instead streams
//! requests at several batch sizes, and the (p99, cycles/img, mm²)
//! frontier goes to `dse-stream-<net>.*`.
//!
//! Every space is a list of declarative descriptions: by default the
//! 240-point IS-OS slice around the paper's machine
//! ([`ArchSpace::is_os`]), or an explicit set of descriptions
//! (`--arch FILE|DIR`), or the built-in family space spanning IS-OS,
//! output-stationary, and fused-tile machines (`--arch-space`, 10,800
//! points). Each evaluated point's `desc` in the JSON output is a
//! description `isos-client --arch` accepts.
//!
//! ```text
//! cargo run --release -p isos-explore --bin dse -- [flags]   # flags: dse --help
//! ```

use isos_explore::arch::{load_dir, load_path};
use isos_explore::report::{stream_to_markdown, to_markdown, write_all, write_all_stream};
use isos_explore::search::{search_arch, search_stream, SearchOptions};
use isos_explore::space::{ArchPoint, ArchSpace};
use isos_nn::models::{try_suite_workload, SUITE_IDS};
use isos_stream::StreamConfig;
use isosceles_bench::cli::{self, Args};
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::suite::SEED;
use std::path::{Path, PathBuf};
use std::process::exit;

/// The usage text.
fn usage_text() -> String {
    format!(
        "usage: dse [--net ID] [--arch PATH | --arch-space] [--top-k N]\n\
         \u{20}          [--budget-mm2 F] [--smoke] [--out DIR] [--seed N]\n\
         \u{20}          [--stream [--batches LIST] [--requests N]]\n\
         \u{20}          [--threads N] [--no-cache] [--cache-bytes N[k|m|g]]\n\
         \n\
         --net ID        workload to explore (default R96); one of {}\n\
         --arch PATH     explore declarative description(s): a .json\n\
         \u{20}               file or a directory of them\n\
         --arch-space    explore the built-in described-architecture family\n\
         \u{20}               space (IS-OS / output-stationary / fused-tile)\n\
         --stream        sweep the batch-size axis under a streaming\n\
         \u{20}               scenario (p99 / cycles-per-image / mm\u{b2} frontier)\n\
         --batches LIST  comma-separated batch sizes (default 1,2,4,8)\n\
         --requests N    requests per streamed scenario (default 64)\n\
         --top-k N       survivors to simulate cycle-level, >= 1 (default 8)\n\
         --budget-mm2 F  discard screened points above F mm\u{b2} at 45 nm (F > 0)\n\
         --smoke         tiny space for CI (with --arch/--arch-space:\n\
         \u{20}               default net G58)\n\
         --out DIR       output directory (default results/dse)\n\
         --seed N        simulation seed (default {SEED})\n\
         --threads N     engine worker threads, one simulation each\n\
         \u{20}               (also ISOS_THREADS)\n\
         --no-cache      disable the engine result cache (also ISOS_NO_CACHE)\n\
         --cache-bytes N bound the engine result cache, e.g. 512m\n\
         \u{20}               (also ISOS_CACHE_BYTES)",
        SUITE_IDS.join(", "),
    )
}

/// Loads described points from a file or directory of descriptions.
fn arch_points_from(path: &Path) -> Result<Vec<ArchPoint>, String> {
    let descs = if path.is_dir() {
        load_dir(path).map_err(|e| e.to_string())?
    } else {
        vec![load_path(path).map_err(|e| e.to_string())?]
    };
    Ok(descs
        .into_iter()
        .map(|desc| ArchPoint {
            label: desc.name.clone(),
            desc,
        })
        .collect())
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut net: Option<String> = None;
    let mut opts = SearchOptions::default();
    let mut smoke = false;
    let mut out = PathBuf::from("results/dse");
    let mut seed = SEED;
    let mut arch_path: Option<PathBuf> = None;
    let mut arch_space = false;
    let mut stream = false;
    let mut batches: Vec<u64> = vec![1, 2, 4, 8];
    let mut requests: u64 = 64;
    let mut engine_opts = EngineOptions::from_env().unwrap_or_else(|e| args.fail(&e));

    args.each(|args, flag| {
        match flag {
            "--net" => net = Some(args.value()?),
            "--arch" => arch_path = Some(PathBuf::from(args.value()?)),
            "--arch-space" => arch_space = true,
            "--stream" => stream = true,
            "--batches" => {
                let list = args.value()?;
                let parsed = list
                    .split(',')
                    .map(|b| b.trim().parse().ok().filter(|&n| n >= 1))
                    .collect();
                batches = cli::checked(flag, &list, "comma-separated integers >= 1", parsed)?;
            }
            "--requests" => requests = args.parse("an integer >= 1", |&n| n >= 1)?,
            "--top-k" => opts.top_k = args.parse("an integer >= 1", |&n| n >= 1)?,
            "--budget-mm2" => {
                let f = args.parse("a finite number > 0", |f: &f64| f.is_finite() && *f > 0.0)?;
                opts.budget_mm2 = Some(f);
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.value()?),
            "--seed" => seed = args.parse("an integer", |_| true)?,
            _ => return engine_opts.parse_flag(args, flag),
        }
        Ok(true)
    });
    if arch_path.is_some() && arch_space {
        args.fail("--arch and --arch-space are mutually exclusive");
    }
    let arch_mode = arch_path.is_some() || arch_space;
    // In arch mode the smoke gate favors the fastest suite workload so
    // the CI check stays quick; otherwise R96 is the paper's headline.
    let net = net.unwrap_or_else(|| {
        if arch_mode && smoke {
            "G58".to_string()
        } else {
            "R96".to_string()
        }
    });
    let Some(workload) = try_suite_workload(&net, seed) else {
        args.fail(&format!("unknown workload id {net}"));
    };

    let engine = SuiteEngine::new(engine_opts);
    let points = match &arch_path {
        Some(path) => arch_points_from(path).unwrap_or_else(|e| args.fail(&e)),
        None if arch_space && smoke => ArchSpace::smoke().enumerate(),
        None if arch_space => ArchSpace::default().enumerate(),
        None if smoke => ArchSpace::is_os_smoke().enumerate(),
        None => ArchSpace::is_os().enumerate(),
    };
    let budget = opts
        .budget_mm2
        .map(|b| format!(", budget {b} mm\u{b2}"))
        .unwrap_or_default();

    let (markdown, written) = if stream {
        if smoke {
            requests = requests.min(4);
            batches.truncate(2);
        }
        let base = StreamConfig {
            requests,
            ..StreamConfig::default()
        };
        eprintln!(
            "dse: streaming {} requests over {} points x batches {:?} (top-{} simulated{budget})",
            requests,
            points.len(),
            batches,
            opts.top_k,
        );
        let result = search_stream(&engine, &workload, &points, &opts, &batches, &base, seed)
            .unwrap_or_else(|e| args.fail(&e.to_string()));
        (stream_to_markdown(&result), write_all_stream(&result, &out))
    } else {
        eprintln!(
            "dse: exploring {} over {} described points (top-{} simulated{budget})",
            workload.id,
            points.len(),
            opts.top_k,
        );
        let result = search_arch(&engine, &workload, &points, &opts, seed)
            .unwrap_or_else(|e| args.fail(&e.to_string()));
        (to_markdown(&result), write_all(&result, &out))
    };
    println!("{markdown}");
    match written {
        Ok(paths) => {
            for p in paths {
                eprintln!("dse: wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("dse: failed to write reports under {}: {e}", out.display());
            exit(1);
        }
    }
}
