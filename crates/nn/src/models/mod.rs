//! The model zoo: the paper's four CNN families and its 11-workload suite.

mod googlenet;
mod mobilenet;
mod resnet_family;
mod vgg16;

pub use googlenet::googlenet_inception3a;
pub use mobilenet::mobilenet_v1;
pub use resnet_family::{resnet, resnet50, ResNetDepth};
pub use vgg16::vgg16;

use crate::graph::Network;

/// A named workload from the paper's evaluation suite.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short id used in the figures (`R96`, `M75`, `V68`, `G58`).
    pub id: &'static str,
    /// The network with sparsity profiles applied.
    pub network: Network,
}

/// Builds the paper's full 11-CNN evaluation suite (Sec. V):
/// six ResNet-50 sparsities, two MobileNetV1, two VGG-16, one GoogLeNet.
///
/// `seed` controls the synthetic activation-sparsity profiles.
pub fn paper_suite(seed: u64) -> Vec<Workload> {
    let mut suite = Vec::new();
    for (id, s) in [
        ("R81", 0.81),
        ("R90", 0.90),
        ("R95", 0.95),
        ("R96", 0.96),
        ("R98", 0.98),
        ("R99", 0.99),
    ] {
        suite.push(Workload {
            id,
            network: resnet50(s, seed),
        });
    }
    for (id, s) in [("V68", 0.68), ("V90", 0.90)] {
        suite.push(Workload {
            id,
            network: vgg16(s, seed),
        });
    }
    suite.push(Workload {
        id: "G58",
        network: googlenet_inception3a(0.58, seed),
    });
    for (id, s) in [("M75", 0.75), ("M89", 0.89)] {
        suite.push(Workload {
            id,
            network: mobilenet_v1(s, seed),
        });
    }
    suite
}

/// The 11 suite workload ids, in paper figure order (what
/// [`paper_suite`] returns and [`suite_workload`] accepts).
pub const SUITE_IDS: [&str; 11] = [
    "R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89",
];

/// Builds exactly one suite network by id, without constructing the
/// other ten (the per-request hot path of the streaming engine builds
/// thousands of single networks).
fn build_suite_network(id: &str, seed: u64) -> Option<Network> {
    Some(match id {
        "R81" => resnet50(0.81, seed),
        "R90" => resnet50(0.90, seed),
        "R95" => resnet50(0.95, seed),
        "R96" => resnet50(0.96, seed),
        "R98" => resnet50(0.98, seed),
        "R99" => resnet50(0.99, seed),
        "V68" => vgg16(0.68, seed),
        "V90" => vgg16(0.90, seed),
        "G58" => googlenet_inception3a(0.58, seed),
        "M75" => mobilenet_v1(0.75, seed),
        "M89" => mobilenet_v1(0.89, seed),
        _ => return None,
    })
}

/// Looks up one suite workload by its short id; `None` for ids outside
/// the suite.
pub fn try_suite_workload(id: &str, seed: u64) -> Option<Workload> {
    let id = SUITE_IDS.iter().copied().find(|&s| s == id)?;
    Some(Workload {
        id,
        network: build_suite_network(id, seed)?,
    })
}

/// Looks up one suite workload by its short id.
///
/// # Panics
///
/// Panics if `id` is not one of the 11 suite ids ([`SUITE_IDS`]); the
/// message lists the valid ids. CLI code that wants to recover should
/// use [`try_suite_workload`] instead.
pub fn suite_workload(id: &str, seed: u64) -> Workload {
    try_suite_workload(id, seed).unwrap_or_else(|| {
        panic!(
            "unknown workload id {id:?}: valid suite ids are {}",
            SUITE_IDS.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_workloads_in_paper_order() {
        let suite = paper_suite(1);
        let ids: Vec<&str> = suite.iter().map(|w| w.id).collect();
        assert_eq!(
            ids,
            vec!["R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89"]
        );
        for w in &suite {
            w.network.validate().expect("valid network");
        }
    }

    #[test]
    fn suite_workload_lookup() {
        let w = suite_workload("R96", 1);
        assert!((w.network.weight_sparsity() - 0.96).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_id_panics() {
        suite_workload("X42", 1);
    }

    #[test]
    fn try_lookup_covers_exactly_the_suite_ids() {
        for id in SUITE_IDS {
            let w = try_suite_workload(id, 1).expect(id);
            assert_eq!(w.id, id);
        }
        assert!(try_suite_workload("X42", 1).is_none());
        assert!(try_suite_workload("", 1).is_none());
    }

    #[test]
    fn single_network_builder_matches_paper_suite() {
        for (i, w) in paper_suite(7).into_iter().enumerate() {
            let direct = try_suite_workload(SUITE_IDS[i], 7).expect(SUITE_IDS[i]);
            assert_eq!(direct.id, w.id);
            assert_eq!(direct.network, w.network, "{} diverged", w.id);
        }
    }

    #[test]
    fn panic_message_lists_valid_ids() {
        let err = std::panic::catch_unwind(|| suite_workload("X42", 1))
            .expect_err("must panic on unknown id");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("unknown workload id \"X42\""), "{msg}");
        for id in SUITE_IDS {
            assert!(msg.contains(id), "message misses {id}: {msg}");
        }
    }
}
