//! Golden lock on the cycle-level models across the harness refactor.
//!
//! The shared `isos_sim::harness` interval loop must be bit-identical to
//! the per-accelerator loops it replaced: these values were captured from
//! the pre-refactor simulators at the paper seed and are asserted with
//! exact `f64` equality (no tolerance). If a change is *meant* to alter
//! model behavior, regenerate the table by printing the same fields and
//! update it in the same commit.

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_sim::energy::{energy_of, EnergyParams};
use isos_sim::metrics::NetworkMetrics;
use isosceles::accel::Accelerator;
use isosceles::IsoscelesConfig;

const SEED: u64 = 20230225;

/// (workload, accelerator, cycles, weight_traffic, act_traffic,
/// effectual_macs, energy_mj) captured pre-refactor at `SEED`.
#[allow(clippy::excessive_precision)]
const GOLDEN: &[(&str, &str, u64, f64, f64, f64, f64)] = &[
    (
        "R96",
        "isosceles",
        90800,
        2543611.4958505575,
        6620344.063842038,
        160370440.13869464,
        0.5505266396912553,
    ),
    (
        "R96",
        "isosceles-single",
        218800,
        2543611.4958505584,
        24018615.6920884,
        160370440.13869455,
        1.0933527144925415,
    ),
    (
        "R96",
        "sparten",
        483095,
        4206840.702913225,
        56341521.521809466,
        156177419.32835475,
        2.1468016433031334,
    ),
    (
        "R96",
        "fused-layer",
        1383101,
        25502912.0,
        5001920.0,
        5284926944.0,
        9.671880216000002,
    ),
    (
        "V68",
        "isosceles",
        972000,
        26327542.719999995,
        15088715.354794383,
        2723996201.267616,
        5.786780984025152,
    ),
    (
        "V68",
        "isosceles-single",
        987700,
        26327542.719999995,
        22374673.299089443,
        2723996201.267616,
        6.014102871887158,
    ),
    (
        "V68",
        "sparten",
        2122523,
        29912918.975999996,
        32491903.495524395,
        2723996201.2676153,
        6.441624193203128,
    ),
    (
        "V68",
        "fused-layer",
        5130893,
        138344128.0,
        18453242.0,
        16084757248.0,
        31.4319274032,
    ),
    (
        "G58",
        "isosceles",
        13700,
        89013.76000000004,
        854347.9695373297,
        28882868.3263913,
        0.07708961870011034,
    ),
    (
        "G58",
        "isosceles-single",
        14000,
        89013.76000000001,
        965524.0225951567,
        28882868.3263913,
        0.08055831155551453,
    ),
    (
        "G58",
        "sparten",
        22717,
        89013.76000000001,
        1116101.1617041375,
        28882868.326391306,
        0.08525631829571474,
    ),
    (
        "G58",
        "fused-layer",
        44216,
        163328.0,
        733432.0,
        161598080.0,
        0.294615744,
    ),
    (
        "M75",
        "isosceles",
        42900,
        1569201.224934544,
        864227.8703793194,
        105198452.84211397,
        0.24950043496328062,
    ),
    (
        "M75",
        "isosceles-single",
        78300,
        1569201.2249345442,
        6747590.794162943,
        105198452.84211399,
        0.4330613581853297,
    ),
    (
        "M75",
        "sparten",
        137432,
        1569201.2249345442,
        14677714.12073071,
        105181167.40220065,
        0.6804526849983871,
    ),
    (
        "M75",
        "fused-layer",
        285727,
        4209088.0,
        732952.0,
        1080143454.0,
        1.9364283471000001,
    ),
];

fn simulate(accel: &str, net: &isos_nn::graph::Network) -> NetworkMetrics {
    match accel {
        "isosceles" => IsoscelesConfig::default().simulate(net, SEED),
        "isosceles-single" => IsoscelesSingleConfig::default().simulate(net, SEED),
        "sparten" => SpartenConfig::default().simulate(net, SEED),
        "fused-layer" => FusedLayerConfig::default().simulate(net, SEED),
        other => panic!("unknown accelerator {other}"),
    }
}

#[test]
fn batch1_single_request_stream_reproduces_the_golden_metrics() {
    // The degenerate streaming scenario (one request, batch = 1, burst
    // arrival) must be the identity wrapper around the single-inference
    // path: same cycles, traffic, MACs, and energy, to the bit.
    let params = EnergyParams::default();
    let cfg = isos_stream::StreamConfig {
        requests: 1,
        batch: 1,
        ..isos_stream::StreamConfig::default()
    };
    let mut checked = 0;
    for &(id, accel, cycles, weight, act, macs, energy_mj) in GOLDEN {
        let accel_model = isosceles_bench::trace::accel_by_name(accel).expect(accel);
        let s = isos_stream::run_stream(accel_model.as_ref(), id, SEED, &cfg);
        let e = energy_of(&s.total.activity, &params).total_mj();
        assert_eq!(s.total.cycles, cycles, "{id}/{accel}: stream cycles");
        assert_eq!(
            s.total.weight_traffic, weight,
            "{id}/{accel}: stream weight traffic"
        );
        assert_eq!(s.total.act_traffic, act, "{id}/{accel}: stream act traffic");
        assert_eq!(
            s.total.effectual_macs, macs,
            "{id}/{accel}: stream effectual macs"
        );
        assert_eq!(e, energy_mj, "{id}/{accel}: stream energy");
        assert_eq!(s.p99(), cycles, "{id}/{accel}: sole latency is the run");
        checked += 1;
    }
    assert_eq!(checked, 16, "4 workloads x 4 accelerators");
}

#[test]
fn harness_refactor_is_bit_identical_to_pre_refactor_models() {
    let params = EnergyParams::default();
    let mut checked = 0;
    for &(id, accel, cycles, weight, act, macs, energy_mj) in GOLDEN {
        let net = isos_nn::models::suite_workload(id, SEED).network;
        let m = simulate(accel, &net);
        let e = energy_of(&m.total.activity, &params).total_mj();
        assert_eq!(m.total.cycles, cycles, "{id}/{accel}: cycles");
        assert_eq!(
            m.total.weight_traffic, weight,
            "{id}/{accel}: weight traffic"
        );
        assert_eq!(m.total.act_traffic, act, "{id}/{accel}: act traffic");
        assert_eq!(m.total.effectual_macs, macs, "{id}/{accel}: effectual macs");
        assert_eq!(e, energy_mj, "{id}/{accel}: energy");
        checked += 1;
    }
    assert_eq!(checked, 16, "4 workloads x 4 accelerators");
}

/// Every breakdown, not just the totals: the FNV-1a fold of the canonical
/// JSON of all 44 suite `NetworkMetrics` (groups and layers included), in
/// `SUITE_IDS` × model order at seed 1 — the `digest` perfbench's
/// `simulate` workload prints for `--seed 1`. Any change to a group or
/// layer entry of any model moves it.
#[test]
fn all_suite_breakdowns_are_pinned() {
    let seed = 1;
    let mut h = isosceles::accel::FNV_OFFSET;
    for id in isos_nn::models::SUITE_IDS {
        let net = isos_nn::models::suite_workload(id, seed).network;
        let models: [&dyn Accelerator; 4] = [
            &IsoscelesConfig::default(),
            &IsoscelesSingleConfig::default(),
            &SpartenConfig::default(),
            &FusedLayerConfig::default(),
        ];
        for model in models {
            let m = model.simulate(&net, seed);
            h = isosceles::accel::fnv1a(h, serde::json::to_string(&m).as_bytes());
        }
    }
    assert_eq!(h, 0xb609_a4dd_db0b_d10e, "got {h:#018x}");
}
