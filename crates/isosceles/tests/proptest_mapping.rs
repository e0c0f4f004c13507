//! Property-based tests for the pipeline mapper: every plan — greedy or
//! explicit — covers each layer exactly once, preserves topological
//! order, and agrees with its own summary accessors.

use isos_nn::graph::Network;
use isos_nn::layer::LayerKind;
use isos_nn::models::suite_workload;
use isosceles::mapping::{map_network, ExecMode, MapKey, Mapping, MappingError};
use isosceles::IsoscelesConfig;
use proptest::prelude::*;

const IDS: [&str; 11] = [
    "R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89",
];

fn suite_net(idx: usize, seed: u64) -> Network {
    suite_workload(IDS[idx % IDS.len()], seed).network
}

fn mode(bit: usize) -> ExecMode {
    if bit == 0 {
        ExecMode::Pipelined
    } else {
        ExecMode::SingleLayer
    }
}

fn is_conv(net: &Network, id: usize) -> bool {
    matches!(
        net.layer(id).kind,
        LayerKind::Conv { .. } | LayerKind::DwConv { .. }
    )
}

/// Tiny deterministic generator for case-local random choices (the
/// vendored proptest has no runtime-length collection strategies).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Independent validity predicate for contiguous partitions of `0..n`:
/// coverage and order hold by construction, so a plan is valid iff every
/// multi-layer part is all-pipelineable and no part exceeds the context
/// count.
fn contiguous_plan_is_valid(net: &Network, cfg: &IsoscelesConfig, parts: &[Vec<usize>]) -> bool {
    parts.iter().all(|p| {
        p.len() <= cfg.max_contexts
            && (p.len() == 1 || p.iter().all(|&id| net.layer(id).kind.is_pipelineable()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn equal_map_keys_give_equal_mappings(
        idx in 0usize..11,
        m in 0usize..2,
        seed in 0u64..1000,
        knobs in 0u64..u64::MAX,
    ) {
        // Two machines sized alike (lanes, buffers, contexts) but with
        // random bandwidth, merger radix, MACs per lane, PE efficiency and
        // scheduler interval: the fields sweeps vary that the key omits.
        let net = suite_net(idx, seed);
        let mut rng = XorShift::new(knobs);
        let sized = IsoscelesConfig {
            lanes: [16, 32, 64, 128][rng.below(4)],
            filter_buffer_bytes: [256u64, 1024, 4096][rng.below(3)] << 10,
            max_contexts: [1, 2, 4, 16][rng.below(4)],
            ..IsoscelesConfig::default()
        };
        let mut varied = || IsoscelesConfig {
            dram_bytes_per_cycle: [32.0, 64.0, 128.0, 512.0][rng.below(4)],
            merger_radix: [64, 128, 256][rng.below(3)],
            macs_per_lane: [16, 64, 128][rng.below(3)],
            pe_efficiency: 0.5 + 0.5 * (rng.below(1000) as f64 / 1000.0),
            scheduler_interval: [50, 100, 400][rng.below(3)],
            ..sized
        };
        let (a, b) = (varied(), varied());
        prop_assert_eq!(MapKey::of(&a, mode(m)), MapKey::of(&b, mode(m)));
        prop_assert_eq!(map_network(&net, &a, mode(m)), map_network(&net, &b, mode(m)));
        // A field the key lists does separate the keys.
        let other = IsoscelesConfig { lanes: a.lanes * 2, ..a };
        prop_assert_ne!(MapKey::of(&a, mode(m)), MapKey::of(&other, mode(m)));
    }

    #[test]
    fn greedy_mapping_covers_each_layer_exactly_once_in_order(
        idx in 0usize..11,
        m in 0usize..2,
        seed in 0u64..1000,
    ) {
        let net = suite_net(idx, seed);
        let cfg = IsoscelesConfig::default();
        let mapping = map_network(&net, &cfg, mode(m));
        let flat: Vec<usize> = mapping.groups.iter().flat_map(|g| g.layers.clone()).collect();
        prop_assert_eq!(flat.len(), net.len());
        // Strictly increasing ids = each exactly once AND topological.
        prop_assert!(flat.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(*flat.first().unwrap(), 0);
        prop_assert_eq!(*flat.last().unwrap(), net.len() - 1);
    }

    #[test]
    fn mapping_summaries_agree_with_group_contents(
        idx in 0usize..11,
        m in 0usize..2,
        seed in 0u64..1000,
    ) {
        let net = suite_net(idx, seed);
        let cfg = IsoscelesConfig::default();
        let mapping = map_network(&net, &cfg, mode(m));
        let longest = mapping.groups.iter().map(|g| g.layers.len()).max().unwrap_or(0);
        prop_assert_eq!(mapping.max_group_len(), longest);
        prop_assert!(mapping.max_group_len() <= cfg.max_contexts);
        // Per-group conv counts tally the group's own members, and they
        // sum to the network's conv total.
        let mut total_convs = 0;
        for g in &mapping.groups {
            let convs = g.layers.iter().filter(|&&id| is_conv(&net, id)).count();
            prop_assert_eq!(g.conv_count(&net), convs);
            prop_assert!(g.conv_count(&net) <= g.layers.len());
            prop_assert_eq!(g.is_pipelined(), g.layers.len() > 1);
            total_convs += convs;
        }
        let net_convs = (0..net.len()).filter(|&id| is_conv(&net, id)).count();
        prop_assert_eq!(total_convs, net_convs);
        // Pipelined groups iterator matches the same predicate.
        let piped = mapping.pipelined_groups().count();
        prop_assert_eq!(piped, mapping.groups.iter().filter(|g| g.layers.len() > 1).count());
    }

    #[test]
    fn greedy_partitions_round_trip_through_from_partitions(
        idx in 0usize..11,
        m in 0usize..2,
        seed in 0u64..1000,
    ) {
        let net = suite_net(idx, seed);
        let cfg = IsoscelesConfig::default();
        let mapping = map_network(&net, &cfg, mode(m));
        let rebuilt = Mapping::from_partitions(&net, &cfg, &mapping.partitions());
        prop_assert_eq!(rebuilt, Ok(mapping));
    }

    #[test]
    fn random_contiguous_partitions_accepted_iff_valid(
        idx in 0usize..11,
        seed in 0u64..1000,
        cuts in 0u64..u64::MAX,
    ) {
        let net = suite_net(idx, seed);
        let cfg = IsoscelesConfig::default();
        // Random contiguous partition of 0..n: cut after each layer with
        // probability 1/2 (plus a forced final cut).
        let mut rng = XorShift::new(cuts);
        let mut parts: Vec<Vec<usize>> = vec![Vec::new()];
        for id in 0..net.len() {
            parts.last_mut().unwrap().push(id);
            if rng.next().is_multiple_of(2) && id + 1 < net.len() {
                parts.push(Vec::new());
            }
        }
        let valid = contiguous_plan_is_valid(&net, &cfg, &parts);
        match Mapping::from_partitions(&net, &cfg, &parts) {
            Ok(mapping) => {
                prop_assert!(valid, "accepted an invalid plan");
                prop_assert_eq!(mapping.partitions(), parts);
            }
            Err(e) => {
                prop_assert!(!valid, "rejected a valid plan: {e}");
                prop_assert!(matches!(
                    e,
                    MappingError::NotPipelineable { .. } | MappingError::TooManyContexts { .. }
                ));
            }
        }
    }

    #[test]
    fn perturbed_plans_report_the_precise_defect(
        idx in 0usize..11,
        seed in 0u64..1000,
        pick in 0u64..u64::MAX,
    ) {
        let net = suite_net(idx, seed);
        let cfg = IsoscelesConfig::default();
        let good = map_network(&net, &cfg, ExecMode::Pipelined).partitions();
        let mut rng = XorShift::new(pick);

        // Dropping any single layer -> exactly MissingLayer(that layer)
        // (order and uniqueness still hold for the remaining ids).
        let gi = rng.below(good.len());
        let li = rng.below(good[gi].len());
        let mut dropped = good.clone();
        let victim = dropped[gi].remove(li);
        if dropped[gi].is_empty() {
            dropped.remove(gi);
        }
        prop_assert_eq!(
            Mapping::from_partitions(&net, &cfg, &dropped),
            Err(MappingError::MissingLayer(victim))
        );

        // Repeating a layer next to itself -> exactly DuplicateLayer.
        // Restricted to pipelined groups with context room, so the
        // coarser group-level checks (TooManyContexts, NotPipelineable)
        // can't fire first.
        let candidates: Vec<usize> = good
            .iter()
            .enumerate()
            .filter(|(_, p)| p.len() > 1 && p.len() < cfg.max_contexts)
            .map(|(i, _)| i)
            .collect();
        if !candidates.is_empty() {
            let gi = candidates[rng.below(candidates.len())];
            let li = rng.below(good[gi].len());
            let mut duped = good.clone();
            let repeated = duped[gi][li];
            duped[gi].insert(li + 1, repeated);
            prop_assert_eq!(
                Mapping::from_partitions(&net, &cfg, &duped),
                Err(MappingError::DuplicateLayer(repeated))
            );
        }
    }
}
