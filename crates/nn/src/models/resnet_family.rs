//! The ResNet family [He et al., CVPR 2016] with STR-style pruning.
//!
//! The paper evaluates ResNet-50 at six weight sparsities: 81%, 90%, 95%,
//! 96%, 98%, 99% (Sec. V). One builder covers it and its siblings: basic
//! blocks (two 3x3 convs) for ResNet-18/34 and bottlenecks (1x1, 3x3,
//! 1x1) for ResNet-50/101/152, with the standard stage widths. Layer
//! names follow torchvision (`layer1.0.conv2`, `layer3.0.downsample`) so
//! that pipeline listings line up with the paper's Table IV.

use crate::graph::Network;
use crate::layer::{ActShape, Layer, LayerKind};
use crate::sparsity::{apply_activation_profile, apply_weight_profile, WeightProfile};

/// Supported ResNet depths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResNetDepth {
    /// 18 layers, basic blocks.
    D18,
    /// 34 layers, basic blocks.
    D34,
    /// 50 layers, bottlenecks.
    D50,
    /// 101 layers, bottlenecks.
    D101,
    /// 152 layers, bottlenecks.
    D152,
}

impl ResNetDepth {
    /// Blocks per stage.
    pub fn blocks(&self) -> [usize; 4] {
        match self {
            ResNetDepth::D18 => [2, 2, 2, 2],
            ResNetDepth::D34 => [3, 4, 6, 3],
            ResNetDepth::D50 => [3, 4, 6, 3],
            ResNetDepth::D101 => [3, 4, 23, 3],
            ResNetDepth::D152 => [3, 8, 36, 3],
        }
    }

    /// Whether this depth uses bottleneck blocks.
    pub fn bottleneck(&self) -> bool {
        !matches!(self, ResNetDepth::D18 | ResNetDepth::D34)
    }

    /// The nominal layer count (for names/tests).
    pub fn layers(&self) -> usize {
        match self {
            ResNetDepth::D18 => 18,
            ResNetDepth::D34 => 34,
            ResNetDepth::D50 => 50,
            ResNetDepth::D101 => 101,
            ResNetDepth::D152 => 152,
        }
    }
}

/// Builds any ResNet for 224x224x3 inputs with STR-like pruning.
///
/// # Panics
///
/// Panics if `weight_sparsity` is not in `[0, 1)`.
pub fn resnet(depth: ResNetDepth, weight_sparsity: f64, seed: u64) -> Network {
    let mut net = Network::new(&format!(
        "ResNet-{} ({}% weight sparsity)",
        depth.layers(),
        (weight_sparsity * 100.0).round()
    ));

    let conv1 = net.add(
        Layer::new(
            "conv1",
            LayerKind::Conv {
                r: 7,
                s: 7,
                stride: 2,
                pad: 3,
            },
            ActShape::new(224, 224, 3),
            64,
        ),
        &[],
    );
    let pool = net.add(
        Layer::new(
            "maxpool",
            LayerKind::MaxPool {
                size: 3,
                stride: 2,
                pad: 1,
            },
            net.layer(conv1).output,
            0,
        ),
        &[conv1],
    );

    let widths = [64usize, 128, 256, 512];
    let expansion = if depth.bottleneck() { 4 } else { 1 };
    let mut prev = pool;
    for (stage_idx, (&width, &blocks)) in widths.iter().zip(depth.blocks().iter()).enumerate() {
        let out_c = width * expansion;
        for block_idx in 0..blocks {
            let stride = if block_idx == 0 && stage_idx > 0 {
                2
            } else {
                1
            };
            let block_name = format!("layer{}.{}", stage_idx + 1, block_idx);
            let in_shape = net.layer(prev).output;
            let mut members = Vec::new();

            let main_out = if depth.bottleneck() {
                let c1 = net.add(
                    Layer::new(
                        &format!("{block_name}.conv1"),
                        LayerKind::Conv {
                            r: 1,
                            s: 1,
                            stride: 1,
                            pad: 0,
                        },
                        in_shape,
                        width,
                    ),
                    &[prev],
                );
                let c2 = net.add(
                    Layer::new(
                        &format!("{block_name}.conv2"),
                        LayerKind::Conv {
                            r: 3,
                            s: 3,
                            stride,
                            pad: 1,
                        },
                        net.layer(c1).output,
                        width,
                    ),
                    &[c1],
                );
                let c3 = net.add(
                    Layer::new(
                        &format!("{block_name}.conv3"),
                        LayerKind::Conv {
                            r: 1,
                            s: 1,
                            stride: 1,
                            pad: 0,
                        },
                        net.layer(c2).output,
                        out_c,
                    ),
                    &[c2],
                );
                members.extend([c1, c2, c3]);
                c3
            } else {
                let c1 = net.add(
                    Layer::new(
                        &format!("{block_name}.conv1"),
                        LayerKind::Conv {
                            r: 3,
                            s: 3,
                            stride,
                            pad: 1,
                        },
                        in_shape,
                        width,
                    ),
                    &[prev],
                );
                let c2 = net.add(
                    Layer::new(
                        &format!("{block_name}.conv2"),
                        LayerKind::Conv {
                            r: 3,
                            s: 3,
                            stride: 1,
                            pad: 1,
                        },
                        net.layer(c1).output,
                        out_c,
                    ),
                    &[c1],
                );
                members.extend([c1, c2]);
                c2
            };

            let needs_downsample = stride != 1 || in_shape.c != out_c;
            let skip = if needs_downsample {
                let ds = net.add(
                    Layer::new(
                        &format!("{block_name}.downsample"),
                        LayerKind::Conv {
                            r: 1,
                            s: 1,
                            stride,
                            pad: 0,
                        },
                        in_shape,
                        out_c,
                    ),
                    &[prev],
                );
                members.push(ds);
                ds
            } else {
                prev
            };
            let add = net.add(
                Layer::new(
                    &format!("{block_name}.add"),
                    LayerKind::Add,
                    net.layer(main_out).output,
                    0,
                ),
                &[main_out, skip],
            );
            members.push(add);
            net.add_block(&block_name, members);
            prev = add;
        }
    }

    let gap = net.add(
        Layer::new(
            "avgpool",
            LayerKind::GlobalAvgPool,
            net.layer(prev).output,
            0,
        ),
        &[prev],
    );
    net.add(
        Layer::new("fc", LayerKind::FullyConnected, net.layer(gap).output, 1000),
        &[gap],
    );

    apply_weight_profile(
        &mut net,
        WeightProfile::StrLike {
            sparsity: weight_sparsity,
        },
    );
    apply_activation_profile(&mut net, seed);
    debug_assert!(net.validate().is_ok());
    net
}

/// The paper's ResNet-50: [`resnet`] at [`ResNetDepth::D50`].
///
/// # Panics
///
/// Panics if `weight_sparsity` is not in `[0, 1)`.
pub fn resnet50(weight_sparsity: f64, seed: u64) -> Network {
    resnet(ResNetDepth::D50, weight_sparsity, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_depths_build_and_validate() {
        for depth in [
            ResNetDepth::D18,
            ResNetDepth::D34,
            ResNetDepth::D50,
            ResNetDepth::D101,
            ResNetDepth::D152,
        ] {
            let net = resnet(depth, 0.9, 1);
            net.validate().expect("valid");
            assert_eq!(net.sinks().len(), 1, "ResNet-{}", depth.layers());
        }
    }

    #[test]
    fn published_parameter_counts() {
        // (depth, params in millions): torchvision reference values.
        for (depth, expect) in [
            (ResNetDepth::D18, 11.7),
            (ResNetDepth::D34, 21.8),
            (ResNetDepth::D50, 25.5),
            (ResNetDepth::D101, 44.5),
            (ResNetDepth::D152, 60.2),
        ] {
            let net = resnet(depth, 0.0, 1);
            let m = net.total_dense_weights() as f64 / 1e6;
            assert!(
                (m - expect).abs() / expect < 0.05,
                "ResNet-{}: {m}M vs {expect}M",
                depth.layers()
            );
        }
    }

    #[test]
    fn published_mac_counts() {
        for (depth, gmacs) in [
            (ResNetDepth::D18, 1.8),
            (ResNetDepth::D34, 3.7),
            (ResNetDepth::D50, 4.1),
            (ResNetDepth::D101, 7.8),
            (ResNetDepth::D152, 11.5),
        ] {
            let net = resnet(depth, 0.0, 1);
            let g = net.total_dense_macs() / 1e9;
            assert!(
                (g - gmacs).abs() / gmacs < 0.1,
                "ResNet-{}: {g} vs {gmacs} GMACs",
                depth.layers()
            );
        }
    }

    #[test]
    fn basic_blocks_have_two_convs_and_identity_skips() {
        let net = resnet(ResNetDepth::D18, 0.9, 1);
        // layer1.1 has no downsample (identity skip).
        assert!(net
            .nodes()
            .iter()
            .all(|n| n.layer.name != "layer1.1.downsample"));
        let block = net.blocks().iter().find(|b| b.name == "layer1.1").unwrap();
        // conv1, conv2, add.
        assert_eq!(block.members.len(), 3);
    }

    #[test]
    fn resnet50_has_right_structure() {
        let net = resnet50(0.96, 1);
        net.validate().expect("valid graph");
        // 1 stem conv + 16 blocks x (3 convs) + 4 downsamples = 53 convs.
        assert_eq!(net.conv_ids().len(), 53);
        // 16 bottleneck blocks registered.
        assert_eq!(net.blocks().len(), 16);
        // conv1 + maxpool + 16 blocks * (3..5 nodes) + gap + fc.
        assert_eq!(net.sinks().len(), 1);
    }

    #[test]
    fn resnet50_dense_macs_match_published_scale() {
        let net = resnet50(0.0, 1);
        // ResNet-50 is ~4.1 GMACs.
        let gmacs = net.total_dense_macs() / 1e9;
        assert!((3.5..4.5).contains(&gmacs), "got {gmacs} GMACs");
        // ~25.5M params total; conv+fc weights ~25M.
        let m = net.total_dense_weights() as f64 / 1e6;
        assert!((23.0..27.0).contains(&m), "got {m}M weights");
    }

    #[test]
    fn resnet50_shapes_match_torchvision() {
        let net = resnet50(0.9, 1);
        // Find layer4.2.conv3: output should be 7x7x2048.
        let l = net
            .nodes()
            .iter()
            .find(|n| n.layer.name == "layer4.2.conv3")
            .unwrap();
        assert_eq!(l.layer.output, ActShape::new(7, 7, 2048));
        // layer1 spatial size is 56x56.
        let l1 = net
            .nodes()
            .iter()
            .find(|n| n.layer.name == "layer1.0.conv2")
            .unwrap();
        assert_eq!(l1.layer.output, ActShape::new(56, 56, 64));
    }

    #[test]
    fn sparsity_target_is_hit_globally() {
        for target in [0.81, 0.96, 0.99] {
            let net = resnet50(target, 1);
            assert!(
                (net.weight_sparsity() - target).abs() < 0.02,
                "target {target}, got {}",
                net.weight_sparsity()
            );
        }
    }

    #[test]
    fn skip_connections_join_correct_shapes() {
        let net = resnet50(0.9, 1);
        for (id, node) in net.nodes().iter().enumerate() {
            if matches!(node.layer.kind, LayerKind::Add) {
                assert_eq!(node.inputs.len(), 2, "add {id} needs two inputs");
            }
        }
    }
}
