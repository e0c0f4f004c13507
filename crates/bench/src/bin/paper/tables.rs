//! Tables I–IV: the two accelerator configurations, the area breakdown,
//! and the R96 pipeline groups.

use isos_baselines::SpartenConfig;
use isos_nn::models::resnet50;
use isos_sim::area::{area_of, sparten_area_mm2, AreaConfig, AreaParams};
use isosceles::mapping::{map_network, ExecMode};
use isosceles::IsoscelesConfig;
use isosceles_bench::suite::SEED;

/// Prints one configuration-table row: the label, the value right-aligned
/// in 8 columns, then the unit and the paper's value.
fn config_row(label: &str, value: impl std::fmt::Display, unit_and_paper: &str) {
    println!("  {label:<20} {value:>8} {unit_and_paper}");
}

/// Table I: configuration of the ISOSceles system.
pub fn table01() {
    let cfg = IsoscelesConfig::default();
    println!("# Table I: ISOSceles configuration (paper values in parentheses)");
    println!("Lane parameters");
    config_row("Multiplier width", cfg.multiplier_bits, "b   (8b)");
    config_row("Accumulator width", cfg.accumulator_bits, "b   (16b)");
    config_row("# MAC units", cfg.macs_per_lane, "    (64)");
    config_row(
        "Context array",
        cfg.context_bytes_per_lane >> 10,
        "KB  (8KB)",
    );
    config_row("Queues", cfg.queue_bytes_per_lane >> 10, "KB  (8KB)");
    config_row("# Mergers", cfg.mergers_per_lane, "    (16)");
    config_row("Merger radix", cfg.merger_radix, "    (256)");
    println!("System parameters");
    config_row("# Lanes", cfg.lanes, "    (64)");
    config_row("Filter buffer", cfg.filter_buffer_bytes >> 20, "MB  (1MB)");
    let dram_gbs = (cfg.dram_bytes_per_cycle * cfg.frequency_ghz) as u64;
    config_row("DRAM bandwidth", dram_gbs, "GB/s (128GB/s)");
    println!("Summary");
    config_row("Total # MAC units", cfg.total_macs(), "    (4096)");
    config_row(
        "Total memory size",
        cfg.total_sram_bytes() >> 20,
        "MB  (2MB)",
    );
    config_row("Frequency", cfg.frequency_ghz, "GHz (1GHz)");
}

/// Table II: area breakdown of ISOSceles (45 nm).
pub fn table02() {
    let params = AreaParams::default();
    let cfg = AreaConfig::isosceles_default();
    let a = area_of(&cfg, &params);
    println!("# Table II: area breakdown (paper values in parentheses)");
    println!("ISOSceles                          Per lane");
    println!(
        "  64 lanes        {:>6.1} mm2 (18.4)   64 MAC units {:>6.3} mm2 (0.069)",
        a.lanes_mm2(),
        a.macs_mm2 / cfg.lanes as f64
    );
    println!(
        "  Filter buffer   {:>6.1} mm2 (7.5)    Mergers      {:>6.3} mm2 (0.060)",
        a.filter_buffer_mm2,
        a.mergers_mm2 / cfg.lanes as f64
    );
    for (part, mm2, paper) in [
        ("Buffers", a.lane_buffers_mm2, "0.121"),
        ("Fetcher", a.fetchers_mm2, "0.010"),
        ("Crossbar", a.crossbar_mm2, "0.021"),
        ("Others", a.others_mm2, "0.007"),
    ] {
        let per_lane = mm2 / cfg.lanes as f64;
        println!("{:38}{part:<12} {per_lane:>6.3} mm2 ({paper})", "");
    }
    println!(
        "  Total           {:>6.1} mm2 (26.0)   Total        {:>6.3} mm2 (0.288)",
        a.total_mm2(),
        a.per_lane_mm2(cfg.lanes)
    );
    println!();
    println!(
        "Scaled to 16 nm: {:.1} mm2 (paper: 4.7 mm2)",
        a.total_mm2() * params.scale_to_16nm
    );
    println!(
        "SparTen-class comparator at matched MACs + 5 MB SRAM: {:.1} mm2 (\"significantly less area\")",
        sparten_area_mm2(&params)
    );
}

/// Table III: configuration of the SparTen baseline system.
pub fn table03() {
    let cfg = SpartenConfig::default();
    println!("# Table III: SparTen configuration (paper values in parentheses)");
    println!("Cluster parameters");
    config_row("Multiplier width", 8, "b   (8b)");
    config_row("Accumulator width", 16, "b   (16b)");
    config_row("# MAC units", cfg.macs_per_cluster, "    (64)");
    config_row("Buffers", cfg.cluster_buffer_bytes >> 10, "KB  (64KB)");
    println!("System parameters");
    config_row("# Clusters", cfg.clusters, "    (64)");
    config_row("Filter buffer", cfg.filter_buffer_bytes >> 20, "MB  (1MB)");
    config_row(
        "DRAM bandwidth",
        cfg.dram_bytes_per_cycle as u64,
        "GB/s (128GB/s)",
    );
    println!("Summary");
    config_row("Total # MAC units", cfg.total_macs(), "    (4096)");
    config_row(
        "Total memory size",
        cfg.total_sram_bytes() >> 20,
        "MB  (5MB)",
    );
    println!("  GoSPA activation filtering: {}", cfg.gospa_filtering);
}

/// Table IV: pipelineable workloads in ResNet-50 with 96% weight sparsity.
///
/// Prints the pipeline groups the greedy mapper builds for R96 — each row
/// is one pipeline with its layer count (L, counting convs as the paper
/// does) and member layers — and checks the paper-level properties: only
/// the first conv and FC run unpipelined, pipelines span 3-7 convs, and
/// sparser variants pipeline more layers.
pub fn table04() {
    let cfg = IsoscelesConfig::default();
    let net = resnet50(0.96, SEED);
    let mapping = map_network(&net, &cfg, ExecMode::Pipelined);

    println!("# Table IV: pipelineable workloads in R96");
    println!("{:<24} {:>2}  layers", "workload", "L");
    for g in &mapping.groups {
        let convs = g.conv_count(&net);
        if convs < 2 {
            continue; // unpipelined singles listed below
        }
        let members: Vec<&str> = g
            .layers
            .iter()
            .map(|&id| net.layer(id).name.as_str())
            .filter(|n| !n.ends_with(".add"))
            .collect();
        println!("{:<24} {:>2}  {}", g.name, convs, members.join(", "));
    }
    println!();
    let single: Vec<&str> = mapping
        .groups
        .iter()
        .filter(|g| g.conv_count(&net) < 2)
        .map(|g| g.name.as_str())
        .collect();
    println!("unpipelined: {}", single.join(", "));
    println!();
    println!("# paper: pipelines of 3-6 convs; only conv1 and fc unpipelined (R96);");
    println!("#        R98/R99 pipeline 9-15 layers");
    for sparsity in [0.96, 0.98, 0.99] {
        let net = resnet50(sparsity, SEED);
        let m = map_network(&net, &cfg, ExecMode::Pipelined);
        let max_convs = m
            .pipelined_groups()
            .map(|g| g.conv_count(&net))
            .max()
            .unwrap_or(0);
        println!(
            "R{:.0}: {} pipelines, deepest {} convs ({} units incl. adds)",
            sparsity * 100.0,
            m.pipelined_groups().count(),
            max_convs,
            m.max_group_len()
        );
    }
}
