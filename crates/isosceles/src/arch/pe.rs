//! Coarse-grain processing elements (paper Sec. IV-B, "PE array").
//!
//! A frontend lane's PEs perform vector(weights) × scalar(input) products
//! and accumulate into partial-result registers. Early designs dedicate a
//! PE to each filter column count `S`, which fragments badly: an `S = 5`
//! PE running an `S = 1` layer idles 80% of its MACs. ISOSceles instead
//! uses *coarse-grain* PEs of [`CoarsePe::width`] MACs each (8 in the
//! paper), fed with a packed vector of compressed weights that may span
//! multiple `(r, k)` pairs, so utilization is independent of `S`.
//!
//! This module models one PE cycle-accurately enough to measure that
//! fragmentation (see `fragmentation` tests and the ablation harness), and
//! is the unit the lane-level simulator charges MAC throughput with.

use serde::{Deserialize, Serialize};

/// One weight operand routed to a PE: its filter coordinates and value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightOp {
    /// Filter row.
    pub r: u16,
    /// Output channel.
    pub k: u16,
    /// Filter column (determines the partial-register offset).
    pub s: u16,
    /// Weight value.
    pub value: f32,
}

/// Throughput counters for a PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeStats {
    /// Cycles the PE was issued work.
    pub busy_cycles: u64,
    /// Effectual MACs performed.
    pub macs: u64,
    /// MAC slots left idle in busy cycles (fragmentation).
    pub idle_slots: u64,
}

impl PeStats {
    /// Fraction of slots in busy cycles doing effectual work.
    pub fn packing_efficiency(&self) -> f64 {
        let slots = self.macs + self.idle_slots;
        if slots == 0 {
            1.0
        } else {
            self.macs as f64 / slots as f64
        }
    }
}

/// A coarse-grain PE: `width` MAC units sharing one input scalar per
/// cycle, accumulating into `(r, k, s)`-addressed partial registers.
///
/// # Examples
///
/// ```
/// use isosceles::arch::pe::{CoarsePe, WeightOp};
/// let mut pe = CoarsePe::new(8);
/// let weights = [
///     WeightOp { r: 0, k: 0, s: 0, value: 2.0 },
///     WeightOp { r: 0, k: 1, s: 1, value: 3.0 },
/// ];
/// let cycles = pe.issue(5.0, &weights);
/// assert_eq!(cycles, 1); // both ops pack into one 8-wide cycle
/// assert_eq!(pe.partial(0, 0, 0), Some(10.0));
/// assert_eq!(pe.partial(0, 1, 1), Some(15.0));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoarsePe {
    width: usize,
    /// Partial-result registers, one sorted `(r, k)` run per filter column
    /// `s`. A real PE holds `S` live columns of registers; storing each
    /// column as a sorted run makes [`CoarsePe::drain_column`] (the S-deep
    /// sliding-window retirement) a buffer swap instead of a tree walk,
    /// and accumulation a binary search in a short contiguous run instead
    /// of a pointer-chasing map lookup.
    columns: Vec<Vec<((u16, u16), f32)>>,
    stats: PeStats,
}

impl CoarsePe {
    /// Creates a PE with `width` MAC units.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "PE needs at least one MAC");
        Self {
            width,
            columns: Vec::new(),
            stats: PeStats::default(),
        }
    }

    /// Creates a PE pre-sized for a mapping: `s_extent` filter columns,
    /// each expected to hold about `rk_hint` live `(r, k)` registers.
    /// Behaves identically to [`CoarsePe::new`]; the geometry only
    /// pre-allocates the register file so hot loops never reallocate.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_geometry(width: usize, s_extent: usize, rk_hint: usize) -> Self {
        let mut pe = Self::new(width);
        pe.columns = (0..s_extent).map(|_| Vec::with_capacity(rk_hint)).collect();
        pe
    }

    /// MAC units in this PE.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Issues one input scalar against a packed weight vector; returns the
    /// cycles consumed (`ceil(len / width)`; the final cycle's unused
    /// slots count as fragmentation).
    pub fn issue(&mut self, input: f32, weights: &[WeightOp]) -> u64 {
        if weights.is_empty() {
            return 0;
        }
        let cycles = weights.len().div_ceil(self.width) as u64;
        self.stats.busy_cycles += cycles;
        self.stats.macs += weights.len() as u64;
        self.stats.idle_slots += cycles * self.width as u64 - weights.len() as u64;
        for w in weights {
            let s = w.s as usize;
            if s >= self.columns.len() {
                self.columns.resize_with(s + 1, Vec::new);
            }
            let col = &mut self.columns[s];
            match col.binary_search_by_key(&(w.r, w.k), |&(rk, _)| rk) {
                Ok(i) => col[i].1 += input * w.value,
                Err(i) => col.insert(i, ((w.r, w.k), input * w.value)),
            }
        }
        cycles
    }

    /// Reads a partial register.
    pub fn partial(&self, r: u16, k: u16, s: u16) -> Option<f32> {
        let col = self.columns.get(s as usize)?;
        col.binary_search_by_key(&(r, k), |&(rk, _)| rk)
            .ok()
            .map(|i| col[i].1)
    }

    /// Pops every completed partial for filter column `s` (the register
    /// retired when the input wavefront advances past its window), sorted
    /// by `(r, k)`. Zero-valued partials are dropped, as the hardware only
    /// emits nonzeros.
    pub fn drain_column(&mut self, s: u16) -> Vec<((u16, u16), f32)> {
        let Some(col) = self.columns.get_mut(s as usize) else {
            return Vec::new();
        };
        let out = col.iter().copied().filter(|&(_, v)| v != 0.0).collect();
        col.clear();
        out
    }

    /// Throughput counters.
    pub fn stats(&self) -> PeStats {
        self.stats
    }
}

impl PartialEq for CoarsePe {
    /// Compares logical PE state: width, counters, and live registers.
    /// Column storage that was allocated but drained (or pre-sized via
    /// [`CoarsePe::with_geometry`]) does not affect equality.
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.stats == other.stats && {
            let flat = |pe: &Self| {
                pe.columns
                    .iter()
                    .enumerate()
                    .flat_map(|(s, col)| col.iter().map(move |&((r, k), v)| ((r, k, s), v)))
                    .collect::<Vec<_>>()
            };
            flat(self) == flat(other)
        }
    }
}

/// Measures the packing efficiency of a *fixed-S* PE design on a layer
/// with `s_layer` filter columns: a PE hardwired for `s_pe` columns only
/// engages `s_layer` of them (the Sec. IV-B motivating example: S=1 on an
/// S=5 PE leaves 80% idle).
pub fn fixed_s_efficiency(s_pe: usize, s_layer: usize) -> f64 {
    assert!(s_pe > 0 && s_layer > 0, "S must be positive");
    (s_layer.min(s_pe)) as f64 / s_pe as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: usize) -> Vec<WeightOp> {
        (0..n)
            .map(|i| WeightOp {
                r: (i / 3) as u16,
                k: (i % 7) as u16,
                s: (i % 3) as u16,
                value: 1.0,
            })
            .collect()
    }

    #[test]
    fn full_vector_packs_perfectly() {
        let mut pe = CoarsePe::new(8);
        let cycles = pe.issue(1.0, &ops(16));
        assert_eq!(cycles, 2);
        assert_eq!(pe.stats().idle_slots, 0);
        assert_eq!(pe.stats().packing_efficiency(), 1.0);
    }

    #[test]
    fn ragged_vector_fragments_last_cycle() {
        let mut pe = CoarsePe::new(8);
        let cycles = pe.issue(1.0, &ops(9));
        assert_eq!(cycles, 2);
        assert_eq!(pe.stats().idle_slots, 7);
        assert!((pe.stats().packing_efficiency() - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn partials_accumulate_across_issues() {
        let mut pe = CoarsePe::new(4);
        let w = [WeightOp {
            r: 1,
            k: 2,
            s: 0,
            value: 3.0,
        }];
        pe.issue(2.0, &w);
        pe.issue(4.0, &w);
        assert_eq!(pe.partial(1, 2, 0), Some(18.0));
    }

    #[test]
    fn drain_column_pops_only_that_column_sorted() {
        let mut pe = CoarsePe::new(8);
        pe.issue(
            1.0,
            &[
                WeightOp {
                    r: 0,
                    k: 5,
                    s: 0,
                    value: 1.0,
                },
                WeightOp {
                    r: 0,
                    k: 2,
                    s: 0,
                    value: 2.0,
                },
                WeightOp {
                    r: 1,
                    k: 0,
                    s: 1,
                    value: 3.0,
                },
            ],
        );
        let drained = pe.drain_column(0);
        assert_eq!(drained, vec![((0, 2), 2.0), ((0, 5), 1.0)]);
        assert_eq!(pe.partial(1, 0, 1), Some(3.0));
        // Draining again finds nothing.
        assert!(pe.drain_column(0).is_empty());
    }

    #[test]
    fn drain_drops_exact_zeros() {
        let mut pe = CoarsePe::new(4);
        pe.issue(
            1.0,
            &[WeightOp {
                r: 0,
                k: 0,
                s: 0,
                value: 1.0,
            }],
        );
        pe.issue(
            -1.0,
            &[WeightOp {
                r: 0,
                k: 0,
                s: 0,
                value: 1.0,
            }],
        );
        assert!(pe.drain_column(0).is_empty());
    }

    #[test]
    fn empty_issue_is_free() {
        let mut pe = CoarsePe::new(8);
        assert_eq!(pe.issue(1.0, &[]), 0);
        assert_eq!(pe.stats().busy_cycles, 0);
    }

    #[test]
    fn with_geometry_behaves_like_new() {
        let mut a = CoarsePe::new(8);
        let mut b = CoarsePe::with_geometry(8, 3, 8);
        for i in 0..20 {
            let v = ops(i % 9 + 1);
            a.issue(i as f32, &v);
            b.issue(i as f32, &v);
        }
        assert_eq!(a, b);
        assert_eq!(a.drain_column(1), b.drain_column(1));
        assert_eq!(a, b);
        // A fresh pre-sized PE equals a fresh default PE.
        assert_eq!(CoarsePe::with_geometry(4, 5, 16), CoarsePe::new(4));
    }

    #[test]
    fn fixed_s_design_fragments_as_the_paper_says() {
        // "if the PE is designed to handle S = 5, when a layer with S = 1
        // is mapped to the PE, 80% of the MAC units are idle."
        assert!((fixed_s_efficiency(5, 1) - 0.2).abs() < 1e-12);
        assert_eq!(fixed_s_efficiency(5, 5), 1.0);
        assert_eq!(fixed_s_efficiency(3, 5), 1.0);
    }

    #[test]
    fn coarse_grain_beats_fixed_s_on_mixed_layers() {
        // A coarse PE running many S=1 vectors of K weights packs near
        // 100%; a fixed S=5 PE caps at 20%.
        let mut pe = CoarsePe::new(8);
        for i in 0..100u16 {
            let vec: Vec<WeightOp> = (0..8)
                .map(|k| WeightOp {
                    r: 0,
                    k,
                    s: 0,
                    value: i as f32,
                })
                .collect();
            pe.issue(1.0, &vec);
        }
        assert!(pe.stats().packing_efficiency() > 0.99);
        assert!(fixed_s_efficiency(5, 1) < 0.25);
    }
}
