//! Cross-accelerator conservation: every model's per-layer breakdown must
//! sum back to its network totals.
//!
//! This is the structural invariant behind the per-layer tables in
//! `bench::report` — if a simulator attributes traffic or cycles to the
//! wrong layer (or drops a layer), the shares it exports are meaningless
//! even when the network totals look right.

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isosceles::accel::Accelerator;
use isosceles::IsoscelesConfig;

const SEED: u64 = 20230225;

fn assert_close(a: f64, b: f64, what: &str, ctx: &str) {
    let rel = (a - b).abs() / b.abs().max(1.0);
    assert!(
        rel < 1e-6,
        "{ctx}: {what} sum {a} vs total {b} (rel {rel:.2e})"
    );
}

fn check(ctx: &str, m: &NetworkMetrics) {
    assert!(!m.layers.is_empty(), "{ctx}: no per-layer breakdown");
    for (sum, label) in [(m.layer_sum(), "layer"), (m.group_sum(), "group")] {
        let ctx = format!("{ctx} ({label} sum)");
        assert_eq!(sum.cycles, m.total.cycles, "{ctx}: cycles");
        check_run(&ctx, &sum, &m.total);
    }
}

fn check_run(ctx: &str, sum: &RunMetrics, total: &RunMetrics) {
    assert_close(
        sum.weight_traffic,
        total.weight_traffic,
        "weight_traffic",
        ctx,
    );
    assert_close(sum.act_traffic, total.act_traffic, "act_traffic", ctx);
    assert_close(
        sum.effectual_macs,
        total.effectual_macs,
        "effectual_macs",
        ctx,
    );
    assert_close(
        sum.activity.dram_bytes,
        total.activity.dram_bytes,
        "dram_bytes",
        ctx,
    );
    assert_close(
        sum.activity.shared_sram_bytes,
        total.activity.shared_sram_bytes,
        "shared_sram_bytes",
        ctx,
    );
    assert_close(
        sum.activity.local_sram_bytes,
        total.activity.local_sram_bytes,
        "local_sram_bytes",
        ctx,
    );
    assert_close(sum.activity.macs, total.activity.macs, "activity.macs", ctx);
    assert_close(
        sum.mac_util.busy(),
        total.mac_util.busy(),
        "mac_util.busy",
        ctx,
    );
    assert_close(
        sum.bw_util.busy(),
        total.bw_util.busy(),
        "bw_util.busy",
        ctx,
    );
}

#[test]
fn per_layer_sums_match_network_totals_for_every_model() {
    let isos = IsoscelesConfig::default();
    let single = IsoscelesSingleConfig::default();
    let sparten = SpartenConfig::default();
    let fused = FusedLayerConfig::default();
    for w in isos_nn::models::paper_suite(SEED) {
        let m = isos.simulate(&w.network, SEED);
        // The per-layer tables are only comparable across runs if a rerun
        // reproduces every breakdown bit for bit and in the same order.
        assert_eq!(m, isos.simulate(&w.network, SEED), "{}: rerun", w.id);
        check(&format!("{}/isosceles", w.id), &m);
        check(
            &format!("{}/isosceles-single", w.id),
            &single.simulate(&w.network, SEED),
        );
        check(
            &format!("{}/sparten", w.id),
            &sparten.simulate(&w.network, SEED),
        );
        check(
            &format!("{}/fused-layer", w.id),
            &fused.simulate(&w.network, SEED),
        );
    }
}
