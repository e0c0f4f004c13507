//! Design-point enumeration: the swept architectural axes.
//!
//! [`ArchSpace`] stamps out declarative [`ArchDesc`] points across three
//! dataflow templates (IS-OS, output-stationary, fused-tile), so a
//! single sweep covers machines as different as ISOSceles,
//! SparTen-likes, and Fused-Layer-likes — all screened by the same
//! analytic flow and simulated through the same engine. The plain `dse`
//! sweep is the IS-OS slice of it ([`ArchSpace::is_os`]).

use std::fmt::Write;

use crate::arch::{reference, ArchDesc};
use serde::{Deserialize, Serialize};

/// One candidate *described* architecture: a label plus the full
/// declarative description it denotes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchPoint {
    /// Short label encoding family and swept values,
    /// e.g. `isos-l64-fb1024-bw128-r256-c16`.
    pub label: String,
    /// The description (also carries the label as its name).
    pub desc: ArchDesc,
}

/// The swept axes of the declarative-architecture space.
///
/// Every combination is stamped into each applicable dataflow family's
/// reference template ([`reference::isosceles`], [`reference::sparten`],
/// [`reference::fused_layer`]): the merger/context axes apply only to
/// the IS-OS family, the tile axis only to the output-stationary (K
/// tile) and fused-tile (P/Q tile) families. The default space covers
/// 10,800 points — large enough that only analytic screening makes it
/// tractable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchSpace {
    /// Lane (cluster) counts.
    pub lanes: Vec<usize>,
    /// Shared weight-buffer capacities in KB.
    pub shared_kb: Vec<u64>,
    /// DRAM bandwidths in bytes per cycle.
    pub dram_bytes_per_cycle: Vec<f64>,
    /// Merger radices (IS-OS family only).
    pub merger_radix: Vec<usize>,
    /// Context counts (IS-OS family only).
    pub contexts: Vec<usize>,
    /// Tile bounds: the K tile of output-stationary points, the P/Q
    /// tile of fused-tile points. Empty leaves only the IS-OS family.
    pub tiles: Vec<u64>,
}

impl Default for ArchSpace {
    fn default() -> Self {
        Self {
            lanes: vec![8, 16, 24, 32, 48, 64, 96, 128, 192, 256],
            shared_kb: vec![128, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096],
            dram_bytes_per_cycle: vec![64.0, 128.0, 256.0, 512.0],
            merger_radix: vec![64, 128, 256],
            contexts: vec![1, 2, 4, 8, 16],
            tiles: vec![8, 16, 32, 64, 128, 256],
        }
    }
}

impl ArchSpace {
    /// The 240-point IS-OS slice `dse` sweeps by default: lanes,
    /// filter-buffer size, merger radix and contexts around the paper's
    /// machine at its 128 B/cycle, enumerated lanes → KB → radix →
    /// contexts. The contexts axis bounds how many layers the greedy
    /// mapper may pipeline per group, from layer-by-layer (1) to the
    /// paper's deepest pipelines (16).
    pub fn is_os() -> Self {
        Self {
            lanes: vec![16, 32, 64, 128],
            shared_kb: vec![256, 512, 1024, 2048],
            dram_bytes_per_cycle: vec![128.0],
            merger_radix: vec![64, 128, 256],
            contexts: vec![1, 2, 4, 8, 16],
            tiles: vec![],
        }
    }

    /// A four-point IS-OS slice for CI smoke runs: the paper's machine
    /// plus one step along the lane and context axes.
    pub fn is_os_smoke() -> Self {
        Self {
            lanes: vec![32, 64],
            shared_kb: vec![1024],
            dram_bytes_per_cycle: vec![128.0],
            merger_radix: vec![256],
            contexts: vec![1, 16],
            tiles: vec![],
        }
    }

    /// A ten-point space for CI smoke runs: the paper's sizing plus one
    /// step along the lane and tile axes in each family.
    pub fn smoke() -> Self {
        Self {
            lanes: vec![32, 64],
            shared_kb: vec![1024],
            dram_bytes_per_cycle: vec![128.0],
            merger_radix: vec![256],
            contexts: vec![16],
            tiles: vec![32, 64],
        }
    }

    /// Points per family and in total:
    /// `(is_os, output_stationary, fused_tile)`.
    pub fn family_sizes(&self) -> (usize, usize, usize) {
        let base = self.lanes.len() * self.shared_kb.len() * self.dram_bytes_per_cycle.len();
        (
            base * self.merger_radix.len() * self.contexts.len(),
            base * self.tiles.len(),
            base * self.tiles.len(),
        )
    }

    /// Number of points [`enumerate`](Self::enumerate) will yield.
    pub fn len(&self) -> usize {
        let (a, b, c) = self.family_sizes();
        a + b + c
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes every combination as a labeled [`ArchPoint`].
    ///
    /// Every yielded description is valid by construction (asserted in
    /// tests): the templates validate and the sweep only touches fields
    /// validation constrains jointly with nothing else.
    ///
    /// # Panics
    ///
    /// Panics if a tile bound is 0 (a loop nest cannot hold it).
    pub fn enumerate(&self) -> Vec<ArchPoint> {
        let templates = [
            reference::isosceles(),
            reference::sparten(),
            reference::fused_layer(),
        ];
        let [isos, os, fused] = &templates;
        let mut points = Vec::with_capacity(self.len());
        // Each name is written here first, then copied out at its exact
        // length: one allocation per name.
        let mut buf = String::new();
        for &lanes in &self.lanes {
            for &kb in &self.shared_kb {
                for &bw in &self.dram_bytes_per_cycle {
                    // The sizing every family sweeps, and its label part.
                    let sizing = format!("l{lanes}-fb{kb}-bw{bw:.0}");
                    // A point's levels clone without allocating their
                    // names or bindings, so a point owns three blocks:
                    // its label, its name and its level list.
                    let mut stamp = |template: &ArchDesc, name: std::fmt::Arguments| {
                        buf.clear();
                        buf.write_fmt(name)
                            .expect("writing to a String cannot fail");
                        let mut desc = ArchDesc {
                            name: buf.as_str().to_owned(),
                            levels: template.levels.clone(),
                            ..*template
                        };
                        desc.compute.lanes = lanes;
                        desc.memory.dram_bytes_per_cycle = bw;
                        desc.levels[0].bytes = kb * 1024;
                        desc
                    };
                    let mut push = |desc: ArchDesc| {
                        points.push(ArchPoint {
                            label: desc.name.clone(),
                            desc,
                        })
                    };
                    for &radix in &self.merger_radix {
                        for &ctx in &self.contexts {
                            let mut desc =
                                stamp(isos, format_args!("isos-{sizing}-r{radix}-c{ctx}"));
                            desc.compute.merger_radix = radix;
                            desc.compute.contexts = ctx;
                            push(desc);
                        }
                    }
                    for &tile in &self.tiles {
                        let mut desc = stamp(os, format_args!("os-{sizing}-k{tile}"));
                        desc.dataflow.loop_nest.set_tile("K", tile);
                        push(desc);
                        let mut desc = stamp(fused, format_args!("fused-{sizing}-t{tile}"));
                        desc.dataflow.loop_nest.set_tile("P", tile);
                        desc.dataflow.loop_nest.set_tile("Q", tile);
                        push(desc);
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{lower, Lowered};
    use isosceles::mapping::ExecMode;
    use isosceles::IsoscelesConfig;

    /// The configuration an IS-OS point lowers to.
    fn lowered_config(p: &ArchPoint) -> IsoscelesConfig {
        match lower(&p.desc).unwrap() {
            Lowered::IsOs { cfg, mode } => {
                assert_eq!(mode, ExecMode::Pipelined, "{}", p.label);
                cfg
            }
            other => panic!("{}: not IS-OS: {other:?}", p.label),
        }
    }

    #[test]
    fn is_os_slice_size_and_labels() {
        let space = ArchSpace::is_os();
        let points = space.enumerate();
        assert_eq!(points.len(), space.len());
        assert_eq!(space.family_sizes(), (4 * 4 * 3 * 5, 0, 0));
        let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), points.len());
        // The paper's machine is in the slice.
        assert!(points
            .iter()
            .any(|p| lowered_config(p) == IsoscelesConfig::default()));
    }

    #[test]
    fn is_os_smoke_slice_is_small_and_contains_default() {
        let points = ArchSpace::is_os_smoke().enumerate();
        assert_eq!(points.len(), 4);
        assert!(points
            .iter()
            .any(|p| lowered_config(p) == IsoscelesConfig::default()));
    }

    #[test]
    fn default_arch_space_exceeds_ten_thousand_points() {
        let space = ArchSpace::default();
        assert!(space.len() >= 10_000, "len {}", space.len());
        let (isos, os, fused) = space.family_sizes();
        assert_eq!(isos + os + fused, space.len());
        assert!(isos > 0 && os > 0 && fused > 0);
    }

    #[test]
    fn arch_space_enumeration_is_valid_and_uniquely_labeled() {
        let points = ArchSpace::smoke().enumerate();
        assert_eq!(points.len(), ArchSpace::smoke().len());
        let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), points.len());
        for p in &points {
            assert_eq!(p.desc.name, p.label);
            assert!(p.desc.validate().is_ok(), "{}", p.label);
        }
    }

    #[test]
    fn full_arch_space_points_all_validate() {
        // Validity by construction, asserted over the whole 10,800.
        for p in ArchSpace::default().enumerate() {
            assert!(p.desc.validate().is_ok(), "{}", p.label);
        }
    }
}
