//! The network executor reuses one scratch set (member-layer state,
//! external streams, scheduler history, merge buffers) across all groups
//! of a run. None of it may leak from one group into the next, or from
//! one run into the next: every group of a network run must equal that
//! group simulated alone on a fresh scratch, bit for bit, and a rerun
//! must equal the first run.

use std::fmt::Debug;

use isos_nn::models::{suite_workload, SUITE_IDS};
use isosceles::arch::{simulate_group, simulate_mapping};
use isosceles::{map_network, ExecMode, IsoscelesConfig};

/// `Debug` prints every float in full, so equal renderings are equal
/// bits (`==` would also take `-0.0` for `0.0`).
fn bits(x: &impl Debug) -> String {
    format!("{x:?}")
}

#[test]
fn pooled_group_state_never_leaks() {
    let cfg = IsoscelesConfig::default();
    let seed = 1;
    for id in SUITE_IDS {
        let net = suite_workload(id, seed).network;
        for mode in [ExecMode::Pipelined, ExecMode::SingleLayer] {
            let mapping = map_network(&net, &cfg, mode);
            let run = simulate_mapping(&net, &cfg, &mapping, seed);
            assert_eq!(run.groups.len(), mapping.groups.len(), "{id} {mode:?}");
            let mut layers = run.layers.iter();
            for (group, (name, metrics)) in mapping.groups.iter().zip(&run.groups) {
                let alone = simulate_group(&net, &cfg, group, seed);
                let at = || format!("{id} {mode:?} group {}", group.name);
                assert_eq!(name, &group.name, "{}", at());
                assert_eq!(bits(metrics), bits(&alone.metrics), "{}", at());
                let pooled: Vec<_> = layers.by_ref().take(group.layers.len()).cloned().collect();
                assert_eq!(bits(&pooled), bits(&alone.layers), "{}", at());
            }
            assert!(layers.next().is_none(), "{id} {mode:?}: extra layers");
            let rerun = simulate_mapping(&net, &cfg, &mapping, seed);
            assert_eq!(bits(&rerun), bits(&run), "{id} {mode:?}: rerun");
        }
    }
}
