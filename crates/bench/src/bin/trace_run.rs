//! Trace one suite workload on one accelerator model end to end and
//! export the timeline.
//!
//! ```text
//! trace_run [--net R81] [--model isosceles] [--out results/traces] [--seed N]
//! ```
//!
//! Writes `<net>-<model>.trace.json` (open at <https://ui.perfetto.dev>),
//! `<net>-<model>.timeline.csv`, and `<net>-<model>.stalls.md` under the
//! output directory, prints the written paths plus the per-unit stall
//! table, and verifies on the way out that the traced metrics match an
//! untraced run. Arguments follow [`isosceles_bench::cli`]: bad input
//! prints an error and the usage to stderr and exits with status 2.

use std::path::PathBuf;
use std::process::exit;

use isos_nn::models::{suite_workload, try_suite_workload, SUITE_IDS};
use isosceles_bench::cli::Args;
use isosceles_bench::suite::SEED;
use isosceles_bench::trace::{accel_by_name, trace_workload, MODEL_NAMES, TRACE_DIR};

/// The usage text.
fn usage_text() -> String {
    format!(
        "usage: trace_run [--net ID] [--model NAME] [--out DIR] [--seed N]\n\
         \n\
         --net ID      suite workload id (default R81); one of {}\n\
         --model NAME  accelerator model (default isosceles); one of\n\
         \u{20}             {} (aliases: single, fused)\n\
         --out DIR     output directory (default {TRACE_DIR})\n\
         --seed N      sparsity-pattern seed (default {SEED})",
        SUITE_IDS.join(", "),
        MODEL_NAMES.join(", "),
    )
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut net = "R81".to_string();
    let mut model = "isosceles".to_string();
    let mut out = PathBuf::from(TRACE_DIR);
    let mut seed = SEED;
    args.each(|args, flag| {
        match flag {
            "--net" => net = args.value()?,
            "--model" => model = args.value()?,
            "--out" => out = PathBuf::from(args.value()?),
            "--seed" => seed = args.parse("an integer", |_| true)?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    if try_suite_workload(&net, seed).is_none() {
        args.fail(&format!("unknown workload id {net}"));
    }
    let Some(accel) = accel_by_name(&model) else {
        args.fail(&format!("unknown model {model}"));
    };

    let workload = suite_workload(&net, seed);
    let run = trace_workload(&workload, accel.as_ref(), seed);
    let untraced = accel.simulate(&workload.network, seed);
    assert_eq!(
        run.metrics, untraced,
        "traced metrics diverged from untraced run"
    );

    let paths = match run.export_all(&out) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot write traces under {}: {e}", out.display());
            exit(1);
        }
    };
    println!(
        "{}/{}: {} cycles, {} units, {} events",
        run.model,
        run.workload,
        run.metrics.total.cycles,
        run.buffer.units().len(),
        run.buffer.len()
    );
    for p in &paths {
        println!("wrote {}", p.display());
    }
    println!();
    print!(
        "{}",
        isos_trace::export::stall_summary_md(&run.buffer, &run.title())
    );
}
