//! Seeded random sparse tensor generation.
//!
//! The paper evaluates on pruned checkpoints and ImageNet activations; this
//! reproduction substitutes seeded unstructured-random tensors with matched
//! sparsity (see DESIGN.md §4). Unstructured pruning produces exactly this
//! kind of pattern, which is the case the hardware targets.

use crate::{Csf, Dense, Shape};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a dense tensor whose elements are nonzero with probability
/// `density`, with values drawn uniformly from `(-1, 1)` excluding zero.
///
/// # Panics
///
/// Panics if `density` is not in `[0, 1]`.
pub fn random_dense(shape: Shape, density: f64, seed: u64) -> Dense {
    assert!((0.0..=1.0).contains(&density), "density out of [0,1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Dense::zeros(shape);
    for v in out.data_mut() {
        if rng.gen_bool(density) {
            // Draw until nonzero so density is exact in expectation.
            let mut x = 0.0f32;
            while x == 0.0 {
                x = rng.gen_range(-1.0f32..1.0);
            }
            *v = x;
        }
    }
    out
}

/// Generates a CSF tensor with `density` nonzeros (see [`random_dense`]).
pub fn random_csf(shape: Shape, density: f64, seed: u64) -> Csf {
    Csf::from_dense(&random_dense(shape, density, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dense_hits_density() {
        let t = random_dense(vec![64, 64].into(), 0.25, 42);
        let d = 1.0 - t.sparsity();
        assert!((d - 0.25).abs() < 0.05, "density {d} far from 0.25");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random_csf(vec![16, 16].into(), 0.3, 7);
        let b = random_csf(vec![16, 16].into(), 0.3, 7);
        let c = random_csf(vec![16, 16].into(), 0.3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn density_zero_and_one() {
        assert_eq!(random_csf(vec![8, 8].into(), 0.0, 1).nnz(), 0);
        assert_eq!(random_csf(vec![8, 8].into(), 1.0, 1).nnz(), 64);
    }
}
