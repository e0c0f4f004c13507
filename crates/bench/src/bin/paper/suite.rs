//! Figures 14–17, the one-screen summary, and the CSV export: every
//! command that reads the shared 11-CNN × 4-accelerator suite run.

use std::fmt::Write as _;
use std::path::Path;

use isos_sim::energy::{energy_of, EnergyParams};
use isos_sim::metrics::NetworkMetrics;
use isos_sim::stats::geometric_mean;
use isos_trace::StallKind;
use isosceles_bench::report::{CsvTable, Report};
use isosceles_bench::suite::{SuiteRow, SEED};
use isosceles_bench::trace::{accel_by_name, trace_workload, MODEL_NAMES, TRACE_DIR};

/// The row of workload `id`.
fn row<'a>(rows: &'a [SuiteRow], id: &str) -> &'a SuiteRow {
    rows.iter()
        .find(|r| r.id.as_str() == id)
        .unwrap_or_else(|| panic!("suite run has no {id} row"))
}

/// Figure 14: speedups (a), cycles (b), and off-chip traffic (c) across
/// the 11-CNN suite for Fused-Layer, SparTen(+GoSPA), and ISOSceles.
pub fn fig14(rows: &[SuiteRow]) {
    println!("# Figure 14a: speedup over Fused-Layer (higher is better)");
    println!("{:<5} {:>10} {:>10}", "net", "SparTen", "ISOSceles");
    for r in rows {
        println!(
            "{:<5} {:>10.2} {:>10.2}",
            r.id,
            r.sparten_speedup_vs_fused(),
            r.speedup_vs_fused()
        );
    }
    let gm_isos: Vec<f64> = rows.iter().map(|r| r.speedup_vs_fused()).collect();
    let gm_spar: Vec<f64> = rows.iter().map(|r| r.speedup_vs_sparten()).collect();
    println!(
        "gmean ISOSceles vs Fused-Layer: {:.2}x  (paper: 7.5x, up to 18.0x; measured max {:.1}x)",
        geometric_mean(&gm_isos),
        gm_isos.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "gmean ISOSceles vs SparTen:     {:.2}x  (paper: 4.3x, up to 6.7x; measured max {:.1}x)",
        geometric_mean(&gm_spar),
        gm_spar.iter().cloned().fold(0.0, f64::max)
    );

    println!();
    println!("# Figure 14b: execution cycles (millions, lower is better)");
    println!(
        "{:<5} {:>12} {:>12} {:>12}",
        "net", "Fused-Layer", "SparTen", "ISOSceles"
    );
    for r in rows {
        println!(
            "{:<5} {:>12.3} {:>12.3} {:>12.3}",
            r.id,
            r.fused.total.cycles as f64 / 1e6,
            r.sparten.total.cycles as f64 / 1e6,
            r.isosceles.total.cycles as f64 / 1e6
        );
    }

    println!();
    println!("# Figure 14c: off-chip traffic normalized to Fused-Layer,");
    println!("#             split into weight (W) and activation (A) traffic");
    println!(
        "{:<5} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "net", "F_W", "F_A", "F_tot", "S_W", "S_A", "S_tot", "I_W", "I_A", "I_tot"
    );
    for r in rows {
        let f = r.fused.total.total_traffic();
        println!(
            "{:<5} {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
            r.id,
            r.fused.total.weight_traffic / f,
            r.fused.total.act_traffic / f,
            1.0,
            r.sparten.total.weight_traffic / f,
            r.sparten.total.act_traffic / f,
            r.sparten.total.total_traffic() / f,
            r.isosceles.total.weight_traffic / f,
            r.isosceles.total.act_traffic / f,
            r.isosceles.total.total_traffic() / f
        );
    }
    let tr_f: Vec<f64> = rows.iter().map(|r| 1.0 / r.traffic_vs_fused()).collect();
    let tr_s: Vec<f64> = rows.iter().map(|r| r.sparten_traffic_ratio()).collect();
    println!(
        "gmean traffic reduction vs Fused-Layer: {:.2}x (paper: 3.6x)",
        geometric_mean(&tr_f)
    );
    println!(
        "gmean traffic reduction vs SparTen:     {:.2}x (paper: 4.7x, up to 8.5x; measured max {:.1}x)",
        geometric_mean(&tr_s),
        tr_s.iter().cloned().fold(0.0, f64::max)
    );
}

/// Prints `title` and one row per workload of `util` on Fused-Layer,
/// SparTen and ISOSceles; returns the rows in that column order.
fn utilization_table(
    title: &str,
    rows: &[SuiteRow],
    util: fn(&NetworkMetrics) -> f64,
) -> Vec<[f64; 3]> {
    println!("{title}");
    println!(
        "{:<5} {:>12} {:>10} {:>10}",
        "net", "Fused-Layer", "SparTen", "ISOSceles"
    );
    rows.iter()
        .map(|r| {
            let [f, s, i] = [&r.fused, &r.sparten, &r.isosceles].map(util);
            println!("{:<5} {:>12.2} {:>10.2} {:>10.2}", r.id, f, s, i);
            [f, s, i]
        })
        .collect()
}

/// Figure 15: memory bandwidth utilization of the three accelerators.
///
/// Paper: Fused-Layer uses only ~47% of bandwidth (compute-bound); SparTen
/// always saturates it (memory-bound); ISOSceles frees bandwidth on some
/// networks.
pub fn fig15(rows: &[SuiteRow]) {
    let title = "# Figure 15: memory bandwidth utilization (1.0 = saturated)";
    let table = utilization_table(title, rows, |m| m.total.bw_util.ratio());
    let fused_sum = table.iter().fold(0.0, |sum, [f, _, _]| sum + f);
    let sparten_min = table.iter().fold(1.0, |min: f64, [_, s, _]| min.min(*s));
    let freed = table.iter().filter(|[_, _, i]| *i < 0.9).count();
    println!();
    println!(
        "Fused-Layer mean: {:.2} (paper: 0.47, compute-bound)",
        fused_sum / rows.len() as f64
    );
    println!(
        "SparTen minimum:  {:.2} (paper: ~1.0, always memory-bound)",
        sparten_min
    );
    println!(
        "ISOSceles: {freed}/11 networks below 90% bandwidth (paper: 3 of 11 no longer need full bandwidth)"
    );
}

/// Figure 16: MAC array utilization of the three accelerators.
///
/// Paper: Fused-Layer ~100% (dense, compute-bound); ISOSceles averages 35%
/// (3.4x SparTen); VGG exceeds 50%; utilization drops as ResNet gets
/// sparser (more memory-bound).
pub fn fig16(rows: &[SuiteRow]) {
    let title = "# Figure 16: MAC array utilization";
    let table = utilization_table(title, rows, |m| m.total.mac_util.ratio());
    let isos: Vec<f64> = table.iter().map(|[_, _, i]| *i).collect();
    let sparten: Vec<f64> = table.iter().map(|[_, s, _]| *s).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "ISOSceles mean: {:.2} (paper: 0.35); SparTen mean: {:.2}; ratio {:.1}x (paper: 3.4x)",
        mean(&isos),
        mean(&sparten),
        mean(&isos) / mean(&sparten)
    );
    // Sparser ResNet -> lower ISOSceles utilization (more memory-bound).
    let util = |id: &str| row(rows, id).isosceles.total.mac_util.ratio();
    println!(
        "R81 {:.2} -> R99 {:.2}: utilization falls with sparsity (paper: same trend)",
        util("R81"),
        util("R99")
    );
    println!("V68 {:.2} (paper: VGG over 0.50)", util("V68"));
}

/// Figure 17: energy per end-to-end inference, broken down by component.
///
/// Paper: 0.2-1.9 mJ per image across ResNet-50 and MobileNetV1 variants;
/// DRAM dominates and dominates harder as networks get sparser; VGG-16
/// consumes 10.1 mJ (V68) and 3.7 mJ (V90).
pub fn fig17(rows: &[SuiteRow]) {
    let params = EnergyParams::default();
    println!("# Figure 17: ISOSceles energy per inference (mJ)");
    println!(
        "{:<5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "net", "DRAM", "SRAM", "compute", "other", "total", "DRAM%"
    );
    let mut resnet_mobilenet = Vec::new();
    for r in rows {
        let e = energy_of(&r.isosceles.total.activity, &params);
        println!(
            "{:<5} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>6.0}",
            r.id,
            e.dram_mj,
            e.sram_mj,
            e.compute_mj,
            e.other_mj,
            e.total_mj(),
            e.dram_fraction() * 100.0
        );
        if r.id.as_str().starts_with('R') || r.id.as_str().starts_with('M') {
            resnet_mobilenet.push((r.id.as_str(), e));
        }
    }
    println!();
    let min = resnet_mobilenet
        .iter()
        .map(|(_, e)| e.total_mj())
        .fold(f64::MAX, f64::min);
    let max = resnet_mobilenet
        .iter()
        .map(|(_, e)| e.total_mj())
        .fold(0.0, f64::max);
    println!("ResNet/MobileNet range: {min:.2}-{max:.2} mJ (paper: 0.2-1.9 mJ)");
    let isos_energy = |id: &str| energy_of(&row(rows, id).isosceles.total.activity, &params);
    let v68 = isos_energy("V68");
    let v90 = isos_energy("V90");
    println!(
        "VGG-16: V68 {:.1} mJ (paper: 10.1), V90 {:.1} mJ (paper: 3.7)",
        v68.total_mj(),
        v90.total_mj()
    );
    // DRAM share grows with sparsity on ResNet.
    let e81 = isos_energy("R81");
    let e99 = isos_energy("R99");
    println!(
        "DRAM share R81 {:.0}% -> R99 {:.0}% (paper: DRAM dominates, more so when sparser)",
        e81.dram_fraction() * 100.0,
        e99.dram_fraction() * 100.0
    );
    // Paper Sec. VI-B: "due to their much higher traffic, the other
    // accelerators will be even more severely dominated by DRAM energy".
    let r96 = row(rows, "R96");
    let e_isos = energy_of(&r96.isosceles.total.activity, &params);
    let e_sp = energy_of(&r96.sparten.total.activity, &params);
    println!(
        "R96 DRAM energy: SparTen {:.2} mJ vs ISOSceles {:.2} mJ ({:.1}x more, from {:.1}x traffic)",
        e_sp.dram_mj,
        e_isos.dram_mj,
        e_sp.dram_mj / e_isos.dram_mj,
        r96.sparten_traffic_ratio()
    );
}

/// One-screen summary of the full evaluation: per-workload speedups,
/// traffic, and utilizations, with the paper's headline gmeans.
pub fn summary(rows: &[SuiteRow]) {
    println!(
        "{:<5} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "net", "IvsS", "IvsF", "SvsF", "I_MB", "S_MB", "F_MB", "I_bw", "I_mac", "S/I_tr"
    );
    let mut vs_sparten = vec![];
    let mut vs_fused = vec![];
    let mut traffic = vec![];
    for r in rows {
        println!(
            "{:<5} {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>8.2} {:>8.2}",
            r.id,
            r.speedup_vs_sparten(),
            r.speedup_vs_fused(),
            r.sparten_speedup_vs_fused(),
            r.isosceles.total.total_traffic() / 1e6,
            r.sparten.total.total_traffic() / 1e6,
            r.fused.total.total_traffic() / 1e6,
            r.isosceles.total.bw_util.ratio(),
            r.isosceles.total.mac_util.ratio(),
            r.sparten_traffic_ratio()
        );
        vs_sparten.push(r.speedup_vs_sparten());
        vs_fused.push(r.speedup_vs_fused());
        traffic.push(r.sparten_traffic_ratio());
    }
    println!("gmean IvsSparTen={:.2} (paper 4.3)  IvsFused={:.2} (paper 7.5)  traffic S/I={:.2} (paper 4.7)",
        geometric_mean(&vs_sparten), geometric_mean(&vs_fused), geometric_mean(&traffic));
}

/// `summary --trace`: re-runs the whole 11 × 4 matrix with event tracing
/// attached and writes `results/traces/stall_summary.md`: per-model
/// aggregate stall shares (busy / input-starved / output-blocked /
/// dram-throttled / merge-bound, cycle-weighted over every unit of every
/// workload). Tracing is uncached and observes the same simulations, so
/// the printed summary is unaffected. Returns the written path.
pub fn write_stall_summary(rows: &[SuiteRow]) -> std::io::Result<String> {
    let mut md = String::from(
        "# Suite stall attribution\n\n\
         Cycle-weighted occupancy over every traced unit of every suite\n\
         workload, per model (from `paper summary --trace`).\n\n\
         | model | unit-cycles | busy |",
    );
    for kind in StallKind::ALL {
        let _ = write!(md, " {} |", kind.label().replace('_', "-"));
    }
    md.push_str("\n|---|---:|---:|---:|---:|---:|---:|\n");

    for model in MODEL_NAMES {
        let accel = accel_by_name(model).expect("known model");
        let mut cycles = 0u64;
        let mut busy = 0.0f64;
        let mut stalls = [0.0f64; 4];
        for r in rows {
            let id = r.id.as_str();
            let w = isos_nn::models::suite_workload(id, SEED);
            let run = trace_workload(&w, accel.as_ref(), SEED);
            for b in run.buffer.breakdowns() {
                cycles += b.cycles;
                busy += b.busy;
                for (acc, s) in stalls.iter_mut().zip(&b.stalls) {
                    *acc += s;
                }
            }
            eprintln!("traced {model}/{id}");
        }
        let total = (cycles as f64).max(1.0);
        let _ = write!(md, "| {model} | {cycles} | {:.1}% |", 100.0 * busy / total);
        for kind in StallKind::ALL {
            let _ = write!(md, " {:.1}% |", 100.0 * stalls[kind.index()] / total);
        }
        md.push('\n');
    }

    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/stall_summary.md");
    std::fs::write(&path, md)?;
    Ok(path)
}

/// Exports the full evaluation as CSV files under `results/`, one per
/// paper figure, for external plotting.
pub fn export(rows: &[SuiteRow]) {
    let dir = Path::new("results");

    let report = Report::new(rows.to_vec());
    for path in report.write_all(dir).expect("write report tables") {
        println!("wrote {}", path.display());
    }

    let mut fig14a = CsvTable::new(&["net", "sparten_speedup", "isosceles_speedup"]);
    let mut fig14b = CsvTable::new(&["net", "fused_cycles", "sparten_cycles", "isosceles_cycles"]);
    let mut fig14c = CsvTable::new(&[
        "net",
        "fused_w",
        "fused_a",
        "sparten_w",
        "sparten_a",
        "isos_w",
        "isos_a",
    ]);
    let mut fig15 = CsvTable::new(&["net", "fused_bw", "sparten_bw", "isosceles_bw"]);
    let mut fig16 = CsvTable::new(&["net", "fused_mac", "sparten_mac", "isosceles_mac"]);
    let mut fig17 = CsvTable::new(&["net", "dram_mj", "sram_mj", "compute_mj", "other_mj"]);

    let params = EnergyParams::default();
    for r in rows {
        let f = r.fused.total.total_traffic();
        fig14a.push_row(vec![
            r.id.to_string(),
            format!("{:.3}", r.sparten_speedup_vs_fused()),
            format!("{:.3}", r.speedup_vs_fused()),
        ]);
        fig14b.push_row(vec![
            r.id.to_string(),
            r.fused.total.cycles.to_string(),
            r.sparten.total.cycles.to_string(),
            r.isosceles.total.cycles.to_string(),
        ]);
        fig14c.push_row(vec![
            r.id.to_string(),
            format!("{:.4}", r.fused.total.weight_traffic / f),
            format!("{:.4}", r.fused.total.act_traffic / f),
            format!("{:.4}", r.sparten.total.weight_traffic / f),
            format!("{:.4}", r.sparten.total.act_traffic / f),
            format!("{:.4}", r.isosceles.total.weight_traffic / f),
            format!("{:.4}", r.isosceles.total.act_traffic / f),
        ]);
        fig15.push_row(vec![
            r.id.to_string(),
            format!("{:.3}", r.fused.total.bw_util.ratio()),
            format!("{:.3}", r.sparten.total.bw_util.ratio()),
            format!("{:.3}", r.isosceles.total.bw_util.ratio()),
        ]);
        fig16.push_row(vec![
            r.id.to_string(),
            format!("{:.3}", r.fused.total.mac_util.ratio()),
            format!("{:.3}", r.sparten.total.mac_util.ratio()),
            format!("{:.3}", r.isosceles.total.mac_util.ratio()),
        ]);
        let e = energy_of(&r.isosceles.total.activity, &params);
        fig17.push_row(vec![
            r.id.to_string(),
            format!("{:.4}", e.dram_mj),
            format!("{:.4}", e.sram_mj),
            format!("{:.4}", e.compute_mj),
            format!("{:.4}", e.other_mj),
        ]);
    }

    for (name, table) in [
        ("fig14a_speedup", &fig14a),
        ("fig14b_cycles", &fig14b),
        ("fig14c_traffic", &fig14c),
        ("fig15_bandwidth", &fig15),
        ("fig16_mac_util", &fig16),
        ("fig17_energy", &fig17),
    ] {
        let path = table.write(dir, name).expect("write CSV");
        println!("wrote {} ({} rows)", path.display(), table.len());
    }
}
