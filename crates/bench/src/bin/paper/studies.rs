//! The commands that build their own networks instead of reading the
//! suite run: Figs. 4, 13 and 18, the introduction's numbers, the
//! design-choice and microarchitecture ablations, the microsim
//! cross-validation, and the ResNet-family extension.

use std::collections::HashMap;

use isos_baselines::{IsoscelesSingleConfig, SpartenConfig};
use isos_nn::graph::Network;
use isos_nn::layer::{ActShape, Layer, LayerKind};
use isos_nn::models::{googlenet_inception3a, mobilenet_v1, resnet, resnet50, ResNetDepth};
use isos_tensor::{gen, Coord, Csf};
use isosceles::accel::Accelerator;
use isosceles::arch::fetcher::arrival_schedule;
use isosceles::arch::filter_buffer::FilterBuffer;
use isosceles::arch::pe::{fixed_s_efficiency, CoarsePe, WeightOp};
use isosceles::arch::{build_chain, simulate_micro};
use isosceles::interconnect::configure;
use isosceles::mapping::{map_network, ExecMode};
use isosceles::IsoscelesConfig;
use isosceles_bench::suite::SEED;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Figure 4: input activation and weight sparsity per ResNet-50 layer.
///
/// The paper's Fig. 4 scatters one point per pruned ResNet-50 (R90) layer:
/// weight sparsity clustered near 90%, activation sparsity spread between
/// 20% and 80%. This harness prints the same scatter as CSV rows plus band
/// summaries.
pub fn fig04() {
    let net = resnet50(0.90, SEED);
    println!("# Figure 4: sparsity of pruned ResNet-50 (R90) layers");
    println!("layer,weight_sparsity_pct,input_act_sparsity_pct");
    let mut wmin: f64 = 1.0;
    let mut wmax: f64 = 0.0;
    let mut amin: f64 = 1.0;
    let mut amax: f64 = 0.0;
    for id in net.conv_ids() {
        let l = net.layer(id);
        let ws = 1.0 - l.weight_density;
        let as_ = 1.0 - l.in_act_density;
        println!("{},{:.1},{:.1}", l.name, ws * 100.0, as_ * 100.0);
        wmin = wmin.min(ws);
        wmax = wmax.max(ws);
        // conv1 sees the dense image; the paper's activation band covers
        // the ReLU'd intermediate layers.
        if l.name != "conv1" {
            amin = amin.min(as_);
            amax = amax.max(as_);
        }
    }
    println!();
    println!("# paper: weights ~90% sparse across layers; activations 20%-80% sparse");
    println!(
        "# measured: weights {:.0}%-{:.0}% (global {:.1}%); activations {:.0}%-{:.0}%",
        wmin * 100.0,
        wmax * 100.0,
        net.weight_sparsity() * 100.0,
        amin * 100.0,
        amax * 100.0
    );
}

/// Figure 13: mapping a ResNet block onto ISOSceles's programmable
/// interconnect. Prints the src → dst → queue configuration table for the
/// first pipelined ResNet block of R96, plus one for a GoogLeNet branch
/// pair (the other graph shape the paper maps).
pub fn fig13() {
    let cfg = IsoscelesConfig::default();

    let net = resnet50(0.96, SEED);
    let mapping = map_network(&net, &cfg, ExecMode::Pipelined);
    let block = mapping
        .groups
        .iter()
        .find(|g| g.layers.len() >= 4)
        .expect("a pipelined ResNet block");
    println!("# Figure 13: ResNet block on the programmable interconnect");
    println!("{}", configure(&net, block).to_table());
    println!("# paper: each inter-layer connection becomes a unit connection;");
    println!("#        the skip join runs on the merger path\n");

    let g = googlenet_inception3a(0.58, SEED);
    let gmap = map_network(&g, &cfg, ExecMode::Pipelined);
    for group in gmap.groups.iter().filter(|gr| gr.is_pipelined()) {
        println!("{}", configure(&g, group).to_table());
    }
}

/// Figure 18: effect of pipelining — per-pipeline cycles on R96 for
/// SparTen, ISOSceles-single (IS-OS dataflow without pipelining), and full
/// ISOSceles.
///
/// Paper: ISOSceles-single is 1.9x faster than SparTen (the dataflow's own
/// benefit); full ISOSceles is another 2.6x over single (pipelining), with
/// matching traffic reductions because R96 is memory-bound; unpipelined
/// layers account for ~16% of single-mode time.
pub fn fig18() {
    let cfg = IsoscelesConfig::default();
    let net = resnet50(0.96, SEED);
    let mapping = map_network(&net, &cfg, ExecMode::Pipelined);

    let isos = cfg.simulate(&net, SEED);
    let single = IsoscelesSingleConfig(cfg).simulate(&net, SEED);
    let sparten = SpartenConfig::default().simulate(&net, SEED);

    // Aggregate the layer-granular baselines over each ISOSceles pipeline's
    // extent ("their equivalent group of layers", Sec. VI-C).
    let mut layer_cycles_single: HashMap<&str, u64> = HashMap::new();
    for (name, m) in &single.groups {
        *layer_cycles_single.entry(name.as_str()).or_default() += m.cycles;
    }
    let mut layer_cycles_sparten: HashMap<&str, u64> = HashMap::new();
    for (name, m) in &sparten.groups {
        *layer_cycles_sparten.entry(name.as_str()).or_default() += m.cycles;
    }

    println!("# Figure 18: execution cycles (K) per layer group on R96");
    println!(
        "{:<24} {:>10} {:>12} {:>10}",
        "pipeline", "SparTen", "ISOS-single", "ISOSceles"
    );
    for (gi, group) in mapping.groups.iter().enumerate() {
        let member_names: Vec<&str> = group
            .layers
            .iter()
            .map(|&id| net.layer(id).name.as_str())
            .collect();
        let sp: u64 = member_names
            .iter()
            .filter_map(|n| layer_cycles_sparten.get(n))
            .sum();
        let sg: u64 = member_names
            .iter()
            .filter_map(|n| layer_cycles_single.get(n))
            .sum();
        let is = isos.groups[gi].1.cycles;
        println!(
            "{:<24} {:>10.1} {:>12.1} {:>10.1}",
            group.name,
            sp as f64 / 1e3,
            sg as f64 / 1e3,
            is as f64 / 1e3
        );
    }
    println!();
    let s_vs_sp = sparten.total.cycles as f64 / single.total.cycles as f64;
    let i_vs_s = single.total.cycles as f64 / isos.total.cycles as f64;
    let t_vs_s = single.total.total_traffic() / isos.total.total_traffic();
    println!(
        "ISOSceles-single vs SparTen: {s_vs_sp:.2}x cycles (paper: 1.9x), traffic {:.2}x (paper: matches speedup)",
        sparten.total.total_traffic() / single.total.total_traffic()
    );
    println!(
        "ISOSceles vs ISOSceles-single: {i_vs_s:.2}x cycles (paper: 2.6x), traffic {t_vs_s:.2}x (paper: 2.7x)"
    );
    // Unpipelined share of single-mode time.
    let unpipelined: u64 = mapping
        .groups
        .iter()
        .filter(|g| g.conv_count(&net) < 2)
        .flat_map(|g| g.layers.iter())
        .filter_map(|&id| layer_cycles_single.get(net.layer(id).name.as_str()))
        .sum();
    println!(
        "Unpipelined layers are {:.0}% of ISOSceles-single time (paper: 16%)",
        100.0 * unpipelined as f64 / single.total.cycles as f64
    );
}

/// The introduction's motivating numbers (paper Sec. I):
/// - 90% sparse weights+activations: footprint falls ~10x but MACs ~100x;
/// - sparsifying ResNet-50 drops arithmetic intensity from 128 to 11
///   operations per byte;
/// - at 90% weight sparsity an accelerator can hold ~10 layers' weights in
///   the space one dense layer needs.
pub fn intro() {
    println!("# Intro claim 1: 90%/90% sparsity -> ~10x footprint, ~100x MACs");
    let dense = resnet50(0.0, SEED);
    let sparse = resnet50(0.90, SEED);
    let mac_ratio = dense.total_dense_macs() / sparse.total_effectual_macs();
    println!(
        "ResNet-50 dense {:.2}G MACs vs R90 effectual {:.2}G: {:.0}x fewer",
        dense.total_dense_macs() / 1e9,
        sparse.total_effectual_macs() / 1e9,
        mac_ratio
    );
    println!("(paper Sec. VI-B: sparse CNNs have ~15x fewer MACs than dense)");

    println!();
    println!("# Intro claim 2: arithmetic intensity falls from 128 to 11 ops/byte");
    for (label, net, dense_exec) in [
        ("dense ResNet-50", &dense, true),
        ("sparse R90", &sparse, false),
    ] {
        let (macs, bytes): (f64, f64) = net
            .nodes()
            .iter()
            .map(|n| {
                let l = &n.layer;
                if dense_exec {
                    (
                        l.dense_macs(),
                        l.weight_dense_bytes() + l.in_act_dense_bytes() + l.out_act_dense_bytes(),
                    )
                } else {
                    (
                        l.effectual_macs(),
                        l.weight_csf_bytes() + l.in_act_csf_bytes() + l.out_act_csf_bytes(),
                    )
                }
            })
            .fold((0.0, 0.0), |(m, b), (dm, db)| (m + dm, b + db));
        println!(
            "{label:<18} {:>8.2}G ops / {:>7.1} MB compulsory = {:>6.1} ops/byte",
            2.0 * macs / 1e9, // MAC = multiply + add
            bytes / 1e6,
            2.0 * macs / bytes
        );
    }
    println!("(paper: 128 -> 11 ops/byte)");

    println!();
    println!("# Intro claim 3: at 90% weight sparsity, ~10 layers fit where 1 dense layer did");
    let l = sparse
        .nodes()
        .iter()
        .find(|n| n.layer.name == "layer3.1.conv2")
        .unwrap();
    let dense_bytes = l.layer.weight_dense_bytes();
    let sparse_bytes = l.layer.weight_csf_bytes();
    println!(
        "layer3.1.conv2: dense {:.0} KB vs compressed {:.0} KB -> {:.1} layers per dense-layer budget",
        dense_bytes / 1e3,
        sparse_bytes / 1e3,
        dense_bytes / sparse_bytes
    );
}

/// Prints one ablation sweep: per network, one row per `(label, config)`
/// point with its cycles, traffic in MB and MAC utilization.
fn sweep<const N: usize>(nets: [(&str, &Network); 2], points: [(String, IsoscelesConfig); N]) {
    for (name, net) in nets {
        for (label, cfg) in &points {
            let r = cfg.simulate(net, SEED).total;
            println!(
                "{name:<4} {label} {:>12} {:>10.1} {:>7.0}%",
                r.cycles,
                r.total_traffic() / 1e6,
                r.mac_util.ratio() * 100.0
            );
        }
    }
}

/// Ablation sweeps over ISOSceles's design choices (beyond the paper's
/// own figures): dynamic-scheduler interval, lane count, context count,
/// filter-buffer size, and queue depth — the knobs Sec. IV motivates.
///
/// Run on R96 (the paper's focus workload) and M75 (the pipelining-
/// friendliest one).
pub fn ablations() {
    let r96 = resnet50(0.96, SEED);
    let m75 = mobilenet_v1(0.75, SEED);
    let nets: [(&str, &Network); 2] = [("R96", &r96), ("M75", &m75)];

    println!("# Ablation 1: dynamic scheduler interval (paper: 100 cycles)");
    println!(
        "{:<10} {:>12} {:>10} {:>8}",
        "interval", "cycles", "MB", "mac%"
    );
    sweep(
        nets,
        [10u64, 50, 100, 500, 2000].map(|interval| {
            let cfg = IsoscelesConfig {
                scheduler_interval: interval,
                ..Default::default()
            };
            (format!("{interval:<5}"), cfg)
        }),
    );

    println!();
    println!("# Ablation 2: lane count (paper: 64), MACs held at 4096");
    sweep(
        nets,
        [16usize, 32, 64, 128].map(|lanes| {
            let cfg = IsoscelesConfig {
                lanes,
                macs_per_lane: 4096 / lanes,
                ..Default::default()
            };
            (format!("lanes={lanes:<4}"), cfg)
        }),
    );

    println!();
    println!("# Ablation 3: time-multiplexing contexts (paper: 2-16)");
    sweep(
        nets,
        [2usize, 4, 8, 16].map(|contexts| {
            let cfg = IsoscelesConfig {
                max_contexts: contexts,
                ..Default::default()
            };
            (format!("contexts={contexts:<3}"), cfg)
        }),
    );

    println!();
    println!("# Ablation 4: filter buffer size (paper: 1 MB)");
    sweep(
        nets,
        [256u64, 512, 1024, 2048, 4096].map(|kb| {
            let cfg = IsoscelesConfig {
                filter_buffer_bytes: kb << 10,
                ..Default::default()
            };
            (format!("fb={kb:<5}KB"), cfg)
        }),
    );

    println!();
    println!("# Ablation 5: per-lane queue budget (paper: 8 KB)");
    sweep(
        nets,
        [2u64, 8, 32].map(|kb| {
            let cfg = IsoscelesConfig {
                queue_bytes_per_lane: kb << 10,
                ..Default::default()
            };
            (format!("q={kb:<4}KB"), cfg)
        }),
    );

    println!();
    println!("# Observations expected from the paper's arguments:");
    println!("#  - tiny scheduler intervals barely help; huge ones cost utilization");
    println!("#  - larger filter buffers let sparser groups pipeline deeper (less traffic)");
    println!("#  - fewer contexts force shallower pipelines (more traffic)");
}

/// Microarchitecture ablations for the component models of Sec. IV-A/B:
/// coarse-grain PE packing vs fixed-S PEs, filter-buffer coalescing, and
/// the fetcher byte schedule.
pub fn microarch() {
    // --- PE packing: coarse-grain vs fixed-S across the kernel mix. ---
    println!("# PE design: MAC packing efficiency by layer kernel width S");
    println!(
        "{:<8} {:>14} {:>18}",
        "S", "fixed-S=5 PE", "coarse 8-wide PE"
    );
    let mut rng = SmallRng::seed_from_u64(SEED);
    for s in [1usize, 3, 5] {
        // Simulate a coarse PE fed with realistic compressed vectors: the
        // filter fetcher sends nnz(F_c) weights per input, spanning r/k.
        let mut pe = CoarsePe::new(8);
        for _ in 0..2000 {
            let nnz = rng.gen_range(1..=(s * 16));
            let vector: Vec<WeightOp> = (0..nnz)
                .map(|i| WeightOp {
                    r: (i % 3) as u16,
                    k: (i / 3) as u16,
                    s: (i % s) as u16,
                    value: 1.0,
                })
                .collect();
            pe.issue(1.0, &vector);
        }
        println!(
            "{:<8} {:>13.0}% {:>17.0}%",
            s,
            fixed_s_efficiency(5, s) * 100.0,
            pe.stats().packing_efficiency() * 100.0
        );
    }
    println!("# paper: an S=1 layer on an S=5 PE idles 80% of MACs; coarse-grain");
    println!("#        PEs keep packing high regardless of S (Sec. IV-B)\n");

    // --- Filter buffer: coalescing and banking under lane contention. ---
    println!("# Filter buffer: serving 64 lanes/cycle (R96 layer2.1.conv2 filter)");
    let net = resnet50(0.96, SEED);
    let layer = net
        .nodes()
        .iter()
        .find(|n| n.layer.name == "layer2.1.conv2")
        .unwrap();
    let filter = gen::random_csf(
        vec![layer.layer.input.c, 3, layer.layer.output.c, 3].into(),
        layer.layer.weight_density,
        SEED,
    );
    for (label, spread) in [
        ("lockstep lanes (same channel)", 1u32),
        ("skewed lanes", 64),
    ] {
        let mut fb = FilterBuffer::new(1 << 20, 64, 32);
        let alloc = fb.load(&filter, 1.5).expect("fits");
        let mut cycles = 0u64;
        let mut coalesced = 0u64;
        let mut rng = SmallRng::seed_from_u64(SEED + spread as u64);
        for step in 0..1000u32 {
            let lanes: Vec<Coord> = (0..64)
                .map(|_| (step + rng.gen_range(0..spread)) % layer.layer.input.c as u32)
                .collect();
            let r = fb.serve(&alloc, &lanes);
            cycles += r.cycles;
            coalesced += r.coalesced;
        }
        println!(
            "  {label:<30} {cycles:>6} SRAM cycles / 1000 issue cycles, {coalesced} coalesced"
        );
    }
    println!("# paper: wide words + banking + request coalescing make one shared");
    println!("#        buffer sustain all lanes (Sec. IV-A)\n");

    // --- Fetcher: the byte schedule of one activation row. ---
    println!("# Fetcher FSM: arrival schedule of one 56-wide activation row");
    let acts = gen::random_csf(vec![56, 56, 64].into(), 0.5, SEED);
    for bw in [2.0f64, 8.0] {
        let sched = arrival_schedule(&acts, 28, bw);
        let last = sched.last().map(|&(_, c)| c).unwrap_or(0);
        println!(
            "  {:>4} B/cycle/lane: {} elements over {} cycles",
            bw,
            sched.len(),
            last
        );
    }
    println!("# decoupling queues absorb this schedule so lanes never see DRAM latency");
}

/// Cross-validation: the element-granular *fully spatial* simulator vs
/// the time-multiplexed interval model, on matched small pipelines.
///
/// The spatial design gives each of the 3 layers its own IS-OS block (3x
/// the MACs), so at compute-bound densities the time-multiplexed machine
/// should take ~3x its cycles; as sparsity grows, the spatial design's
/// utilization collapses (Sec. IV-B's motivation for time-multiplexing)
/// and the gap narrows toward fill/drain and preload overheads.
pub fn microsim() {
    let cfg = IsoscelesConfig {
        lanes: 32,
        macs_per_lane: 32,
        ..Default::default()
    };
    println!("# Spatial (element-level, 3 blocks) vs time-multiplexed (interval, 1 block)");
    println!("# 3-layer 24x32x8 pipeline; expected ratio ~3x when compute-bound");
    println!(
        "{:<10} {:>12} {:>14} {:>8} {:>12}",
        "density", "spatial cyc", "timemux cyc", "ratio", "spatial mac%"
    );
    for density in [0.8, 0.5, 0.25, 0.1] {
        // Real tensors for the micro model.
        let input = gen::random_csf(vec![24, 32, 8].into(), density, 1);
        let filters: Vec<(Csf, usize, usize)> = (0..3)
            .map(|i| (gen::random_csf(vec![8, 3, 8, 3].into(), 0.4, 50 + i), 1, 1))
            .collect();
        let chain = build_chain(input.clone(), &filters);
        let micro = simulate_micro(&chain, &cfg);

        // A statistical twin for the interval model: same shapes, same
        // measured densities.
        let mut net = Network::new("twin");
        let mut prev: Option<usize> = None;
        for (i, layer) in chain.iter().enumerate() {
            let d = layer.input.shape().dims();
            let l = Layer::new(
                &format!("c{i}"),
                LayerKind::Conv {
                    r: 3,
                    s: 3,
                    stride: 1,
                    pad: 1,
                },
                ActShape::new(d[0], d[1], d[2]),
                8,
            )
            .with_weight_density(layer.filter.density())
            .with_act_density(
                layer.input.density(),
                chain
                    .get(i + 1)
                    .map_or(layer.input.density(), |next| next.input.density()),
            );
            let inputs: Vec<usize> = prev.into_iter().collect();
            prev = Some(net.add(l, &inputs));
        }
        let interval = cfg.simulate(&net, 9);

        let ratio = interval.total.cycles as f64 / micro.cycles as f64;
        println!(
            "{:<10.2} {:>12} {:>14} {:>8.2} {:>11.0}%",
            density,
            micro.cycles,
            interval.total.cycles,
            ratio,
            micro.mac_utilization * 100.0
        );
    }
    println!();
    println!("# Spatial utilization falling with sparsity reproduces Sec. IV-B's");
    println!("# motivation for time-multiplexing; ratios <= ~3x + preload overhead");
    println!("# validate the interval abstraction used for every figure.");
}

/// Extension study: ISOSceles across the ResNet family (18/34/50/101/152)
/// at 90% weight sparsity — does the inter-layer-pipelining advantage
/// generalize beyond the paper's ResNet-50?
pub fn resnet_scaling() {
    let cfg = IsoscelesConfig::default();
    println!("# ResNet family at 90% weight sparsity on ISOSceles vs SparTen");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "model", "GMACs", "isos Kcyc", "spar Kcyc", "speedup", "pipelines"
    );
    for depth in [
        ResNetDepth::D18,
        ResNetDepth::D34,
        ResNetDepth::D50,
        ResNetDepth::D101,
        ResNetDepth::D152,
    ] {
        let net = resnet(depth, 0.90, SEED);
        let isos = cfg.simulate(&net, SEED);
        let spar = SpartenConfig::default().simulate(&net, SEED);
        let mapping = map_network(&net, &cfg, ExecMode::Pipelined);
        println!(
            "ResNet-{:<5} {:>10.2} {:>12.1} {:>12.1} {:>9.2}x {:>10}",
            depth.layers(),
            net.total_dense_macs() / 1e9,
            isos.total.cycles as f64 / 1e3,
            spar.total.cycles as f64 / 1e3,
            spar.total.cycles as f64 / isos.total.cycles as f64,
            mapping.pipelined_groups().count()
        );
    }
    println!();
    println!("# Expected: the advantage holds across depths (all layer-by-layer");
    println!("# baselines pay per-layer activation spills that pipelining avoids).");
}
