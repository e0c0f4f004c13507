//! Per-column work statistics for the performance models.
//!
//! The cycle-level models advance layer execution in units of output
//! activation *columns* — exactly the wavefront granularity of the IS-OS
//! dataflow (paper Fig. 6). Sparsity makes the work per column vary ("large
//! and fast variations of work", Sec. III-B); [`layer_work`] materializes a
//! seeded per-column work profile so that the dynamic scheduler model sees
//! realistic imbalance without materializing full tensors for
//! ImageNet-scale networks.

use crate::layer::{Layer, LayerKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Work and footprint profile of one layer, at column granularity.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerWork {
    /// Layer name.
    pub name: String,
    /// Input columns (`W`).
    pub in_cols: usize,
    /// Output columns (`Q`).
    pub out_cols: usize,
    /// Input rows (`H`).
    pub in_rows: usize,
    /// Output rows (`P`).
    pub out_rows: usize,
    /// Horizontal stride.
    pub stride: usize,
    /// Horizontal kernel extent (`S`): the wavefront lag between input and
    /// output columns.
    pub s_kernel: usize,
    /// Effectual MACs needed to produce each output column.
    pub macs_per_col: Vec<f64>,
    /// Compressed input bytes per input column.
    pub in_bytes_per_col: Vec<f64>,
    /// Compressed output bytes per output column.
    pub out_bytes_per_col: Vec<f64>,
    /// Compressed weight footprint (CSF), bytes.
    pub weight_csf_bytes: f64,
    /// Dense weight footprint, bytes.
    pub weight_dense_bytes: f64,
    /// Whether the layer has weights at all.
    pub has_weights: bool,
}

impl LayerWork {
    /// Total effectual MACs.
    pub fn total_macs(&self) -> f64 {
        self.macs_per_col.iter().sum()
    }

    /// Total compressed output activation bytes.
    pub fn out_csf_bytes(&self) -> f64 {
        self.out_bytes_per_col.iter().sum()
    }

    /// The input columns `[lo, hi)` needed before output column `q` can be
    /// produced (the wavefront dependency: output lags input by `S`,
    /// scaled by stride).
    pub fn input_cols_for_output(&self, q: usize) -> usize {
        ((q * self.stride + self.s_kernel).min(self.in_cols)).max(1)
    }
}

/// Builds the work profile of a layer.
///
/// `seed` controls the per-column wobble only; totals are exact in
/// expectation (they match [`Layer::effectual_macs`] and the CSF byte
/// estimates on [`Layer`]).
pub fn layer_work(layer: &Layer, seed: u64) -> LayerWork {
    let mut work = LayerWork::default();
    layer_work_into(layer, seed, &mut work);
    work
}

/// [`layer_work`] refilling `work` in place: every field is overwritten
/// and the name and column buffers keep their allocations, so a
/// simulator that pools one `LayerWork` per pipeline context pays no
/// allocation per layer. The result equals [`layer_work`]'s bit for bit
/// (it *is* `layer_work`'s body).
pub fn layer_work_into(layer: &Layer, seed: u64, work: &mut LayerWork) {
    let mut rng = SmallRng::seed_from_u64(seed ^ WORK_SEED);
    let (q, w) = match layer.kind {
        LayerKind::FullyConnected | LayerKind::GlobalAvgPool => (1, 1),
        _ => (layer.output.w, layer.input.w),
    };
    wobbled_split(layer.effectual_macs(), q, &mut rng, &mut work.macs_per_col);
    wobbled_split(
        layer.in_act_csf_bytes(),
        w,
        &mut rng,
        &mut work.in_bytes_per_col,
    );
    wobbled_split(
        layer.out_act_csf_bytes(),
        q,
        &mut rng,
        &mut work.out_bytes_per_col,
    );
    let (_, s) = layer.kind.kernel();
    work.name.clear();
    work.name.push_str(&layer.name);
    work.in_cols = w;
    work.out_cols = q;
    work.in_rows = layer.input.h;
    work.out_rows = layer.output.h;
    work.stride = layer.kind.stride();
    work.s_kernel = s;
    work.weight_csf_bytes = layer.weight_csf_bytes();
    work.weight_dense_bytes = layer.weight_dense_bytes();
    work.has_weights = layer.kind.has_weights();
}

/// Splits `total` across `n` columns into `cols` (cleared first) with
/// ±30% per-column wobble, exactly preserving the total.
fn wobbled_split(total: f64, n: usize, rng: &mut SmallRng, cols: &mut Vec<f64>) {
    cols.clear();
    // One buffer end to end: draw the factors, sum them, scale in place.
    // The per-column values are exactly the `total * f / sum` of a
    // separate factor pass (same draws, same sum, same expression).
    cols.extend((0..n).map(|_| rng.gen_range(0.7..1.3)));
    let sum: f64 = cols.iter().sum();
    for f in cols.iter_mut() {
        *f = total * *f / sum;
    }
}

/// Salt so layer-work RNG streams differ from other seeded generators.
const WORK_SEED: u64 = 0x1505_CE1E5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ActShape;

    fn conv_layer() -> Layer {
        Layer::new(
            "c",
            LayerKind::Conv {
                r: 3,
                s: 3,
                stride: 1,
                pad: 1,
            },
            ActShape::new(16, 20, 8),
            8,
        )
        .with_weight_density(0.2)
        .with_act_density(0.5, 0.4)
    }

    #[test]
    fn totals_match_layer_expectations() {
        let l = conv_layer();
        let w = layer_work(&l, 1);
        assert!((w.total_macs() - l.effectual_macs()).abs() / l.effectual_macs() < 1e-9);
        let in_bytes: f64 = w.in_bytes_per_col.iter().sum();
        assert!((in_bytes - l.in_act_csf_bytes()).abs() < 1e-6);
        assert!((w.out_csf_bytes() - l.out_act_csf_bytes()).abs() < 1e-6);
    }

    #[test]
    fn per_column_work_varies_but_is_positive() {
        let w = layer_work(&conv_layer(), 5);
        assert_eq!(w.macs_per_col.len(), 20);
        let min = w.macs_per_col.iter().cloned().fold(f64::MAX, f64::min);
        let max = w.macs_per_col.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.0);
        assert!(max / min > 1.05, "expected visible imbalance");
    }

    #[test]
    fn wavefront_dependency_lags_by_s() {
        let w = layer_work(&conv_layer(), 1);
        assert_eq!(w.input_cols_for_output(0), 3);
        assert_eq!(w.input_cols_for_output(5), 8);
        // Clamped at the input width.
        assert_eq!(w.input_cols_for_output(19), 20);
    }

    #[test]
    fn strided_layer_consumes_faster() {
        let l = Layer::new(
            "s2",
            LayerKind::Conv {
                r: 3,
                s: 3,
                stride: 2,
                pad: 1,
            },
            ActShape::new(16, 20, 8),
            8,
        );
        let w = layer_work(&l, 1);
        assert_eq!(w.out_cols, 10);
        assert_eq!(w.input_cols_for_output(4), 11);
    }

    #[test]
    fn fc_collapses_to_single_column() {
        let l = Layer::new(
            "fc",
            LayerKind::FullyConnected,
            ActShape::new(1, 1, 512),
            100,
        );
        let w = layer_work(&l, 1);
        assert_eq!(w.out_cols, 1);
        assert_eq!(w.macs_per_col.len(), 1);
        assert!((w.total_macs() - l.effectual_macs()).abs() < 1e-9);
    }

    #[test]
    fn refilling_a_used_buffer_equals_a_fresh_build() {
        let fc = Layer::new(
            "fc",
            LayerKind::FullyConnected,
            ActShape::new(1, 1, 512),
            100,
        );
        let mut work = layer_work(&conv_layer(), 3);
        layer_work_into(&fc, 4, &mut work);
        assert_eq!(work, layer_work(&fc, 4));
        layer_work_into(&conv_layer(), 5, &mut work);
        assert_eq!(work, layer_work(&conv_layer(), 5));
    }

    #[test]
    fn deterministic_per_seed() {
        let l = conv_layer();
        assert_eq!(layer_work(&l, 9), layer_work(&l, 9));
        assert_ne!(layer_work(&l, 9), layer_work(&l, 10));
    }
}
