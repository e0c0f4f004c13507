//! Design-space exploration driver.
//!
//! Screens a design space analytically, simulates the top-K survivors
//! through the parallel cached suite engine, and writes the (cycles,
//! mm², mJ) Pareto frontier as JSON + CSV + markdown.
//!
//! Three spaces are available: the default [`IsoscelesConfig`] sweep,
//! an explicit set of declarative architecture descriptions
//! (`--arch FILE|DIR`), or the built-in described-architecture family
//! space spanning IS-OS, output-stationary, and fused-tile machines
//! (`--arch-space`, 10,800 points).
//!
//! ```text
//! cargo run --release -p isos-explore --bin dse -- [flags]   # flags: dse --help
//! ```
//!
//! [`IsoscelesConfig`]: isosceles::IsoscelesConfig

use isos_explore::arch::{load_dir, load_path};
use isos_explore::report::{
    arch_to_markdown, stream_to_markdown, to_markdown, write_all, write_all_arch, write_all_stream,
};
use isos_explore::search::{search, search_arch, search_stream, SearchOptions};
use isos_explore::space::{ArchPoint, ArchSpace, DesignSpace};
use isos_nn::models::{try_suite_workload, SUITE_IDS};
use isos_stream::StreamConfig;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::suite::SEED;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Prints the error and usage to stderr and exits with status 2.
fn usage(error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: dse [--net ID] [--arch PATH | --arch-space] [--top-k N]\n\
         \u{20}          [--budget-mm2 F] [--smoke] [--out DIR] [--seed N]\n\
         \u{20}          [--stream [--batches LIST] [--requests N]]\n\
         \u{20}          [--threads N] [--no-cache] [--cache-bytes N[k|m|g]]\n\
         \n\
         --net ID        workload to explore (default R96); one of {}\n\
         --arch PATH     explore declarative description(s): a .toml/.json\n\
         \u{20}               file or a directory of them\n\
         --arch-space    explore the built-in described-architecture family\n\
         \u{20}               space (IS-OS / output-stationary / fused-tile)\n\
         --stream        sweep the batch-size axis under a streaming\n\
         \u{20}               scenario (p99 / cycles-per-image / mm\u{b2} frontier)\n\
         --batches LIST  comma-separated batch sizes (default 1,2,4,8)\n\
         --requests N    requests per streamed scenario (default 64)\n\
         --top-k N       survivors to simulate cycle-level, >= 1 (default 8)\n\
         --budget-mm2 F  discard screened points above F mm\u{b2} at 45 nm (F > 0)\n\
         --smoke         tiny space for CI (arch mode: default net G58)\n\
         --out DIR       output directory (default results/dse)\n\
         --seed N        simulation seed (default {SEED})\n\
         --threads N     engine worker threads, one simulation each\n\
         \u{20}               (also ISOS_THREADS)\n\
         --no-cache      disable the engine result cache (also ISOS_NO_CACHE)\n\
         --cache-bytes N bound the engine result cache, e.g. 512m\n\
         \u{20}               (also ISOS_CACHE_BYTES)",
        SUITE_IDS.join(", "),
    );
    exit(2);
}

/// Loads described points from a file or directory of descriptions.
fn arch_points_from(path: &Path) -> Vec<ArchPoint> {
    let descs = if path.is_dir() {
        match load_dir(path) {
            Ok(d) => d,
            Err(e) => usage(&format!("{e}")),
        }
    } else {
        match load_path(path) {
            Ok(d) => vec![d],
            Err(e) => usage(&format!("{e}")),
        }
    };
    descs
        .into_iter()
        .map(|desc| ArchPoint {
            label: desc.name.clone(),
            desc,
        })
        .collect()
}

fn main() {
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
    let mut engine_opts = EngineOptions::from_env();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match engine_opts.parse_flag(arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => usage(&e),
        }
        let mut value = |name: &str| match it.next() {
            Some(v) => v.clone(),
            None => usage(&format!("{name} needs a value")),
        };
        match arg.as_str() {
            "--net" => net = Some(value("--net")),
            "--arch" => arch_path = Some(PathBuf::from(value("--arch"))),
            "--arch-space" => arch_space = true,
            "--stream" => stream = true,
            "--batches" => {
                batches = value("--batches")
                    .split(',')
                    .map(|s| match s.trim().parse::<u64>() {
                        Ok(b) if b >= 1 => b,
                        _ => usage("--batches needs comma-separated integers >= 1"),
                    })
                    .collect();
                if batches.is_empty() {
                    usage("--batches needs at least one batch size");
                }
            }
            "--requests" => match value("--requests").parse() {
                Ok(n) if n >= 1 => requests = n,
                _ => usage("--requests needs an integer >= 1"),
            },
            "--top-k" => match value("--top-k").parse() {
                Ok(n) if n >= 1 => opts.top_k = n,
                _ => usage("--top-k needs an integer >= 1"),
            },
            "--budget-mm2" => match value("--budget-mm2").parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => opts.budget_mm2 = Some(f),
                _ => usage("--budget-mm2 needs a finite number > 0"),
            },
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("--out")),
            "--seed" => match value("--seed").parse() {
                Ok(n) => seed = n,
                Err(_) => usage("--seed needs an integer"),
            },
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if arch_path.is_some() && arch_space {
        usage("--arch and --arch-space are mutually exclusive");
    }
    if stream && (arch_path.is_some() || arch_space) {
        usage("--stream explores the config space; it cannot combine with --arch/--arch-space");
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
        usage(&format!("unknown workload id {net}"));
    };

    let engine = SuiteEngine::new(engine_opts);

    if stream {
        let space = if smoke {
            requests = requests.min(4);
            batches.truncate(2);
            DesignSpace::smoke()
        } else {
            DesignSpace::default()
        };
        let base = StreamConfig {
            requests,
            ..StreamConfig::default()
        };
        eprintln!(
            "dse: streaming {} requests over {} points x batches {:?} (top-{} simulated{})",
            requests,
            space.len(),
            batches,
            opts.top_k,
            opts.budget_mm2
                .map(|b| format!(", budget {b} mm\u{b2}"))
                .unwrap_or_default()
        );
        let result = search_stream(&engine, &workload, &space, &opts, &batches, &base, seed);
        println!("{}", stream_to_markdown(&result));
        match write_all_stream(&result, &out) {
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
        return;
    }

    if arch_mode {
        let points = match &arch_path {
            Some(path) => arch_points_from(path),
            None => {
                if smoke {
                    ArchSpace::smoke().enumerate()
                } else {
                    ArchSpace::default().enumerate()
                }
            }
        };
        eprintln!(
            "dse: exploring {} over {} described architectures (top-{} simulated{})",
            workload.id,
            points.len(),
            opts.top_k,
            opts.budget_mm2
                .map(|b| format!(", budget {b} mm\u{b2}"))
                .unwrap_or_default()
        );
        let result = match search_arch(&engine, &workload, &points, &opts, seed) {
            Ok(r) => r,
            Err(e) => usage(&format!("{e}")),
        };
        println!("{}", arch_to_markdown(&result));
        match write_all_arch(&result, &out) {
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
        return;
    }

    let space = if smoke {
        DesignSpace::smoke()
    } else {
        DesignSpace::default()
    };
    eprintln!(
        "dse: exploring {} over {} points (top-{} simulated{})",
        workload.id,
        space.len(),
        opts.top_k,
        opts.budget_mm2
            .map(|b| format!(", budget {b} mm\u{b2}"))
            .unwrap_or_default()
    );

    let result = search(&engine, &workload, &space, &opts, seed);
    println!("{}", to_markdown(&result));
    match write_all(&result, &out) {
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
