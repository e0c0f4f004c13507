//! Regenerates the paper's evaluation: Tables I–IV, Figs. 4 and 13–18,
//! the introduction's numbers, the ablations, and the CSV export.
//!
//! Runs each command in the order given (`all` runs every command, and
//! `paper --help` lists them) and prints its table to stdout. The suite
//! commands (`fig14`–`fig17`, `summary`, `export`) share one
//! [`SuiteEngine::run_suite`] call, which prints its engine summary line
//! to stderr. Arguments follow [`isosceles_bench::cli`]: bad input prints
//! an error and the usage to stderr and exits with status 2.

mod studies;
mod suite;
mod tables;

use std::process::exit;

use isosceles_bench::cli::Args;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::suite::{SuiteRow, SEED};

/// What a command reads.
#[derive(Clone, Copy)]
enum Run {
    /// Builds its own networks.
    Alone(fn()),
    /// Reads the shared suite run.
    Suite(fn(&[SuiteRow])),
}

/// Every command: name, one-line description, body.
#[rustfmt::skip]
const COMMANDS: [(&str, &str, Run); 18] = [
    ("fig04", "Fig. 4: weight and activation sparsity per R90 layer", Run::Alone(studies::fig04)),
    ("fig13", "Fig. 13: interconnect configuration of a ResNet block", Run::Alone(studies::fig13)),
    ("fig14", "Fig. 14: speedup, cycles and off-chip traffic", Run::Suite(suite::fig14)),
    ("fig15", "Fig. 15: memory bandwidth utilization", Run::Suite(suite::fig15)),
    ("fig16", "Fig. 16: MAC array utilization", Run::Suite(suite::fig16)),
    ("fig17", "Fig. 17: energy per inference", Run::Suite(suite::fig17)),
    ("fig18", "Fig. 18: per-pipeline cycles on R96", Run::Alone(studies::fig18)),
    ("table01", "Table I: ISOSceles configuration", Run::Alone(tables::table01)),
    ("table02", "Table II: area breakdown", Run::Alone(tables::table02)),
    ("table03", "Table III: SparTen configuration", Run::Alone(tables::table03)),
    ("table04", "Table IV: pipelineable workloads in R96", Run::Alone(tables::table04)),
    ("intro", "Sec. I: MAC reduction, arithmetic intensity, layers per buffer", Run::Alone(studies::intro)),
    ("ablations", "design-choice sweeps on R96 and M75", Run::Alone(studies::ablations)),
    ("microarch", "PE packing, filter-buffer coalescing, fetcher schedule", Run::Alone(studies::microarch)),
    ("microsim", "element-level spatial model vs the interval model", Run::Alone(studies::microsim)),
    ("resnet-scaling", "ResNet-18/34/50/101/152 at 90% weight sparsity", Run::Alone(studies::resnet_scaling)),
    ("summary", "one-screen summary of the suite run", Run::Suite(suite::summary)),
    ("export", "CSV export of every suite figure under results/", Run::Suite(suite::export)),
];

/// The usage text.
fn usage_text() -> String {
    let mut text = String::from(
        "usage: paper [--trace] [--threads N] [--no-cache] [--cache-bytes N[k|m|g]] COMMAND...\n\
         \n\
         COMMAND is one or more of:\n",
    );
    for (name, about, _) in COMMANDS {
        text.push_str(&format!("  {name:<16}{about}\n"));
    }
    text.push_str(
        "  all             every command above, in this order\n\
         \n\
         --trace          with summary: also trace every suite workload and\n\
         \u{20}                write results/traces/stall_summary.md\n\
         --threads N      suite engine worker threads (also ISOS_THREADS)\n\
         --no-cache       disable the result cache (also ISOS_NO_CACHE)\n\
         --cache-bytes N  bound the result cache, e.g. 512m (also ISOS_CACHE_BYTES)",
    );
    text
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut engine_opts = EngineOptions::from_env().unwrap_or_else(|e| args.fail(&e));
    let mut trace = false;
    let mut commands: Vec<(&str, Run)> = Vec::new();
    args.each(|args, arg| {
        match arg {
            "--trace" => trace = true,
            "all" => commands.extend(COMMANDS.iter().map(|&(name, _, run)| (name, run))),
            _ if arg.starts_with('-') => return engine_opts.parse_flag(args, arg),
            _ => match COMMANDS.iter().find(|(name, _, _)| *name == arg) {
                Some(&(name, _, run)) => commands.push((name, run)),
                None => return Err(format!("unknown command {arg}")),
            },
        }
        Ok(true)
    });
    if commands.is_empty() {
        args.fail("no command given");
    }
    if trace && !commands.iter().any(|&(name, _)| name == "summary") {
        args.fail("--trace only applies to summary");
    }

    let rows = if commands.iter().any(|(_, run)| matches!(run, Run::Suite(_))) {
        SuiteEngine::new(engine_opts).run_suite(SEED).rows
    } else {
        Vec::new()
    };
    for (i, &(name, run)) in commands.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match run {
            Run::Alone(f) => f(),
            Run::Suite(f) => f(&rows),
        }
        if trace && name == "summary" {
            let path = suite::write_stall_summary(&rows).unwrap_or_else(|e| {
                eprintln!("error: failed to write stall summary: {e}");
                exit(1)
            });
            eprintln!("stall summary written to {path}");
        }
    }
}
