//! Reference descriptions of the paper's machines.
//!
//! These constructors are the in-code source of truth for the JSON
//! files shipped under `configs/arch/`: the validation suite asserts
//! that each shipped file parses to exactly the corresponding
//! constructor, and that each constructor lowers to exactly the
//! hand-written model configuration it describes
//! ([`IsoscelesConfig::default`](isosceles::IsoscelesConfig),
//! [`SpartenConfig::default`](isos_baselines::SpartenConfig),
//! [`FusedLayerConfig::default`](isos_baselines::FusedLayerConfig)).
//! JSON has no comments, so each constructor's doc comment carries its
//! machine's sizing rationale.

use super::schema::{
    ArchDesc, BufferLevel, ComputeDesc, DataflowDesc, DataflowStyle, Gating, LoopNest, MemoryDesc,
    PipelinePolicy, Stores, TensorBinding, TensorFormat, TensorKind,
};

fn binding(
    tensor: TensorKind,
    format: TensorFormat,
    skipping: bool,
    gating: Gating,
) -> TensorBinding {
    TensorBinding {
        tensor,
        format,
        skipping,
        gating,
    }
}

fn stores(bindings: &[TensorBinding]) -> Stores {
    bindings.iter().copied().collect()
}

fn nest(entries: &[&str]) -> LoopNest {
    LoopNest::parse(entries.iter().copied()).expect("reference loop nests are well-formed")
}

/// The full ISOSceles machine (Table I) with inter-layer pipelining.
///
/// Table I sizing:
/// - 64 lanes of 64 MACs at 0.95 PE efficiency under coarse-grain
///   packing, 16 mergers of radix 256 and 16 contexts per lane;
/// - 128 B/cycle of DRAM bandwidth (128 GB/s HBM at 1 GHz);
/// - a shared 1 MB filter buffer of CSF-compressed weights, with a 1.5x
///   allocation overhead from wide-word padding and bank alignment;
/// - per-lane 8 KB context arrays holding output partials, and per-lane
///   8 KB stream queues holding input activations.
pub fn isosceles() -> ArchDesc {
    ArchDesc {
        name: "isosceles".into(),
        compute: ComputeDesc {
            lanes: 64,
            macs_per_lane: 64,
            efficiency: 0.95,
            mergers_per_lane: 16,
            merger_radix: 256,
            contexts: 16,
        },
        memory: MemoryDesc {
            dram_bytes_per_cycle: 128.0,
        },
        levels: vec![
            BufferLevel {
                name: "filter-buffer".into(),
                bytes: 1 << 20,
                banks: 64,
                per_lane: false,
                alloc_overhead: 1.5,
                stores: stores(&[binding(
                    TensorKind::Weights,
                    TensorFormat::Csf,
                    true,
                    Gating::None,
                )]),
            },
            BufferLevel {
                name: "context-arrays".into(),
                bytes: 8 << 10,
                banks: 1,
                per_lane: true,
                alloc_overhead: 1.0,
                stores: stores(&[binding(
                    TensorKind::Outputs,
                    TensorFormat::Csf,
                    false,
                    Gating::None,
                )]),
            },
            BufferLevel {
                name: "queues".into(),
                bytes: 8 << 10,
                banks: 1,
                per_lane: true,
                alloc_overhead: 1.0,
                stores: stores(&[binding(
                    TensorKind::Inputs,
                    TensorFormat::Csf,
                    true,
                    Gating::None,
                )]),
            },
        ],
        dataflow: DataflowDesc {
            style: DataflowStyle::IsOs,
            loop_nest: nest(&["K", "C", "P", "Q", "R", "S"]),
            pipeline: PipelinePolicy::InterLayer,
        },
    }
}

/// ISOSceles hardware run layer by layer (the Fig. 18 ablation): the
/// [`isosceles()`] machine with inter-layer pipelining disabled. Lowers
/// 1:1 onto the cycle-level engine in single-layer mode, so it
/// reproduces the hand-written `isosceles-single` model bit for bit.
pub fn isosceles_single() -> ArchDesc {
    let mut desc = isosceles();
    desc.name = "isosceles-single".into();
    desc.dataflow.pipeline = PipelinePolicy::None;
    desc
}

/// SparTen [Gondimalla et al., MICRO 2019] with GoSPA's activation
/// filtering, sized per Table III: output-stationary bitmask
/// intersection, run layer by layer. Lowers onto the SparTen closed
/// form, so it reproduces the hand-written model exactly.
///
/// - 64 clusters of 64 MACs at 0.35 efficiency (intersection and
///   load-balance overheads), with no hardware mergers;
/// - a shared 1 MB filter buffer of bitmask-compressed weights;
/// - 64 KB per-cluster buffers whose inputs are GoSPA-gated: elements
///   whose positions can never meet a nonzero weight are not fetched;
/// - a `K/64` tile in the loop nest, the output-stationary re-read
///   width: inputs stream once per group of 64 output channels resident
///   in the clusters.
pub fn sparten() -> ArchDesc {
    ArchDesc {
        name: "sparten".into(),
        compute: ComputeDesc {
            lanes: 64,
            macs_per_lane: 64,
            efficiency: 0.35,
            mergers_per_lane: 0,
            merger_radix: 256,
            contexts: 1,
        },
        memory: MemoryDesc {
            dram_bytes_per_cycle: 128.0,
        },
        levels: vec![
            BufferLevel {
                name: "filter-buffer".into(),
                bytes: 1 << 20,
                banks: 64,
                per_lane: false,
                alloc_overhead: 1.0,
                stores: stores(&[binding(
                    TensorKind::Weights,
                    TensorFormat::Bitmask,
                    true,
                    Gating::None,
                )]),
            },
            BufferLevel {
                name: "cluster-buffers".into(),
                bytes: 64 << 10,
                banks: 1,
                per_lane: true,
                alloc_overhead: 1.0,
                stores: stores(&[
                    binding(
                        TensorKind::Inputs,
                        TensorFormat::Bitmask,
                        true,
                        Gating::Gospa,
                    ),
                    binding(
                        TensorKind::Outputs,
                        TensorFormat::Bitmask,
                        false,
                        Gating::None,
                    ),
                ]),
            },
        ],
        dataflow: DataflowDesc {
            style: DataflowStyle::OutputStationary,
            loop_nest: nest(&["K/64", "P", "Q", "C", "R", "S"]),
            pipeline: PipelinePolicy::None,
        },
    }
}

/// Fused-Layer [Alwani et al., MICRO 2016]: dense tiled inter-layer
/// pipelining with halo recomputation, sized per Sec. V with the same
/// MACs and bandwidth as ISOSceles. Lowers onto the Fused-Layer closed
/// form, so it reproduces the hand-written model exactly.
///
/// - 0.95 efficiency: dense dataflows run near peak;
/// - a 2.5 MB filter buffer holding the dense weights of all fused
///   layers, and a 512 KB tile buffer for the intermediate activation
///   wavefront;
/// - matching 32x32 `P`/`Q` output tiles: the 2-D tiling whose halos are
///   recomputed at tile boundaries.
pub fn fused_layer() -> ArchDesc {
    ArchDesc {
        name: "fused-layer".into(),
        compute: ComputeDesc {
            lanes: 64,
            macs_per_lane: 64,
            efficiency: 0.95,
            mergers_per_lane: 0,
            merger_radix: 256,
            contexts: 1,
        },
        memory: MemoryDesc {
            dram_bytes_per_cycle: 128.0,
        },
        levels: vec![
            BufferLevel {
                name: "filter-buffer".into(),
                bytes: 5 << 19,
                banks: 64,
                per_lane: false,
                alloc_overhead: 1.0,
                stores: stores(&[binding(
                    TensorKind::Weights,
                    TensorFormat::Dense,
                    false,
                    Gating::None,
                )]),
            },
            BufferLevel {
                name: "tile-buffer".into(),
                bytes: 512 << 10,
                banks: 8,
                per_lane: false,
                alloc_overhead: 1.0,
                stores: stores(&[
                    binding(TensorKind::Inputs, TensorFormat::Dense, false, Gating::None),
                    binding(
                        TensorKind::Outputs,
                        TensorFormat::Dense,
                        false,
                        Gating::None,
                    ),
                ]),
            },
        ],
        dataflow: DataflowDesc {
            style: DataflowStyle::FusedTile,
            loop_nest: nest(&["P/32", "Q/32", "K", "C", "R", "S"]),
            pipeline: PipelinePolicy::None,
        },
    }
}

/// All four reference descriptions.
pub fn all() -> Vec<ArchDesc> {
    vec![isosceles(), isosceles_single(), sparten(), fused_layer()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_validates() {
        for desc in all() {
            assert!(desc.validate().is_ok(), "{}", desc.name);
        }
    }
}
