//! Sparse matrix–sparse matrix multiplication on ISOSceles hardware.
//!
//! Paper Sec. VII: "small changes to ISOSceles would allow it to support
//! Gustavson's dataflow (by using the fetcher, PE array, and K-merger, and
//! bypassing other modules), which pipelines naturally." This module
//! implements that extension: row-wise (Gustavson) SpGEMM where each
//! nonzero `A[i,k]` fetches row `B[k,:]` (the fetcher + filter-buffer
//! path), scales it in the PE array, and the per-row partial products are
//! merged and reduced by the K-merger — the same structures the OS backend
//! uses for transposition.

use isos_sim::metrics::RunMetrics;
use isos_tensor::merge::comparator_levels;
use isos_tensor::{Csf, Point, Shape};
use serde::{Deserialize, Serialize};

/// Work counters for one SpGEMM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpgemmStats {
    /// Rows of `A` processed.
    pub a_rows: u64,
    /// Nonzeros of `A` consumed.
    pub a_nnz: u64,
    /// Row fetches of `B` (one per `A` nonzero with a matching row).
    pub b_row_fetches: u64,
    /// Effectual multiplies.
    pub macs: u64,
    /// Elements emitted by the per-row K-mergers.
    pub merged: u64,
    /// Comparator activations in the mergers.
    pub merger_comparisons: u64,
}

/// Result of an SpGEMM: the product and its work counters.
#[derive(Clone, Debug)]
pub struct SpgemmOutput {
    /// `A x B` in CSF (`[M, N]`).
    pub output: Csf,
    /// Work counters.
    pub stats: SpgemmStats,
}

/// Multiplies two sparse matrices with Gustavson's dataflow.
///
/// `a` is `[M, K]`, `b` is `[K, N]`; the result is `[M, N]`. Both inputs
/// are traversed concordantly; per output row, the scaled `B` rows are
/// combined by column — the merge-reduce pattern of a backend lane.
///
/// The software engine runs the merge as a word-level scratch accumulator:
/// scaled `B` rows accumulate into a dense per-row scratch, touched columns
/// are tracked in a packed `u64` bitmask, and the sorted output is replayed
/// with `trailing_zeros` iteration. Because each scaled row has unique
/// columns and the K-merger's tie-break is stable (lower stream first), the
/// scratch accumulates values in exactly the merge-emission order, so the
/// output values are bit-identical to the merger's. The charged
/// [`SpgemmStats`] are likewise identical: every scaled element is emitted
/// once and costs [`comparator_levels`] of the stream radix, exactly what
/// the radix-bounded K-merger charges.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or inputs are not matrices.
pub fn spgemm(a: &Csf, b: &Csf) -> SpgemmOutput {
    assert_eq!(a.ndim(), 2, "A must be a matrix");
    assert_eq!(b.ndim(), 2, "B must be a matrix");
    assert_eq!(a.shape()[1], b.shape()[0], "inner dimension mismatch");
    let m = a.shape()[0];
    let n = b.shape()[1];

    let mut stats = SpgemmStats::default();
    let mut entries: Vec<(Point, f32)> = Vec::new();
    let b_root = b.root();
    // Word-level row-fetch index: one popcount probe per A nonzero instead
    // of a per-element binary search over B's root fiber.
    let b_index = b_root.index();
    // Per-output-row scratch, reused across rows; `touched` packs the
    // columns written this row.
    let mut scratch = vec![0.0f32; n];
    let mut touched = vec![0u64; n.div_ceil(64)];

    for (i, a_row) in a.root().iter_children() {
        stats.a_rows += 1;
        // Streams = scaled B rows, visited in A-nonzero order (the
        // merger's stream order). Count them for the comparator charge.
        let mut streams = 0u64;
        let mut elems = 0u64;
        for (k, a_val) in a_row.iter_leaf() {
            stats.a_nnz += 1;
            let Some(pos) = b_index.position(k) else {
                continue;
            };
            let b_row = b_root.child(pos);
            stats.b_row_fetches += 1;
            streams += 1;
            for (j, b_val) in b_row.iter_leaf() {
                stats.macs += 1;
                elems += 1;
                let j = j as usize;
                let (w, bit) = (j / 64, 1u64 << (j % 64));
                if touched[w] & bit == 0 {
                    touched[w] |= bit;
                    scratch[j] = a_val * b_val;
                } else {
                    scratch[j] += a_val * b_val;
                }
            }
        }
        if streams == 0 {
            continue;
        }
        stats.merged += elems;
        stats.merger_comparisons += elems * comparator_levels(streams as usize) as u64;
        // Sorted replay of the touched columns; clear as we go so the
        // scratch is pristine for the next row.
        for (w, word) in touched.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = scratch[j];
                scratch[j] = 0.0;
                if v != 0.0 {
                    entries.push((Point::from_slice(&[i, j as u32]), v));
                }
            }
        }
    }
    SpgemmOutput {
        output: Csf::from_sorted_unique(Shape::new(vec![m, n]), entries),
        stats,
    }
}

/// Analytic performance estimate for one SpGEMM on the Table-I ISOSceles
/// configuration, using the same cost model as the CNN path: one cycle per
/// effectual MAC across the MAC array versus streaming both operands and
/// the result once over DRAM.
pub fn estimate_run(
    out: &SpgemmOutput,
    a: &Csf,
    b: &Csf,
    cfg: &crate::IsoscelesConfig,
) -> RunMetrics {
    let bytes =
        |t: &Csf| isos_nn::layer::compressed_bytes(t.nnz() as f64, t.shape().volume() as f64);
    let mut m = RunMetrics {
        effectual_macs: out.stats.macs as f64,
        weight_traffic: bytes(b),
        act_traffic: bytes(a) + bytes(&out.output),
        ..Default::default()
    };
    let compute = m.effectual_macs / cfg.total_macs() as f64;
    let memory = m.total_traffic() / cfg.dram_bytes_per_cycle;
    m.cycles = compute.max(memory).ceil().max(1.0) as u64;
    m.mac_util.add(compute.min(m.cycles as f64), m.cycles);
    m.bw_util.add(memory.min(m.cycles as f64), m.cycles);
    m.activity.dram_bytes = m.total_traffic();
    m.activity.macs = m.effectual_macs;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_tensor::{gen, Dense};

    fn dense_matmul(a: &Dense, b: &Dense) -> Dense {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(b.shape()[0], k);
        let mut out = Dense::zeros(vec![m, n].into());
        for i in 0..m {
            for kk in 0..k {
                let av = a.data()[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data_mut()[i * n + j] += av * b.data()[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn spgemm_matches_dense_matmul() {
        for seed in 0..5 {
            let ad = gen::random_dense(vec![13, 17].into(), 0.3, seed);
            let bd = gen::random_dense(vec![17, 11].into(), 0.25, seed + 100);
            let out = spgemm(&Csf::from_dense(&ad), &Csf::from_dense(&bd));
            let golden = dense_matmul(&ad, &bd);
            assert!(
                out.output.to_dense().max_abs_diff(&golden) < 1e-4,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn mac_count_is_exact() {
        let ad = gen::random_dense(vec![8, 8].into(), 0.4, 7);
        let bd = gen::random_dense(vec![8, 8].into(), 0.4, 8);
        let a = Csf::from_dense(&ad);
        let b = Csf::from_dense(&bd);
        let out = spgemm(&a, &b);
        // Gustavson MACs = sum over A nonzeros of |B[k,:]|.
        let mut expected = 0u64;
        for (p, _) in a.iter() {
            if let Some(row) = b.root().find(p[1]) {
                expected += row.len() as u64;
            }
        }
        assert_eq!(out.stats.macs, expected);
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let a = Csf::empty(vec![4, 4].into());
        let b = gen::random_csf(vec![4, 4].into(), 0.5, 1);
        let out = spgemm(&a, &b);
        assert_eq!(out.output.nnz(), 0);
        assert_eq!(out.stats.macs, 0);
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let eye = Csf::from_entries(
            vec![6, 6].into(),
            (0..6u32)
                .map(|i| (Point::from_slice(&[i, i]), 1.0))
                .collect(),
        );
        let x = gen::random_csf(vec![6, 6].into(), 0.4, 3);
        let out = spgemm(&eye, &x);
        assert_eq!(out.output, x);
    }

    #[test]
    fn estimate_reports_traffic_and_cycles() {
        let a = gen::random_csf(vec![64, 64].into(), 0.1, 1);
        let b = gen::random_csf(vec![64, 64].into(), 0.1, 2);
        let out = spgemm(&a, &b);
        let est = estimate_run(&out, &a, &b, &crate::IsoscelesConfig::default());
        assert!(est.cycles > 0);
        assert!(est.total_traffic() > 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = gen::random_csf(vec![4, 5].into(), 0.5, 1);
        let b = gen::random_csf(vec![4, 4].into(), 0.5, 2);
        let _ = spgemm(&a, &b);
    }
}
