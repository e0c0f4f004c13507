//! The dynamic PE scheduler (paper Sec. IV-B).
//!
//! Sparsity makes per-layer work vary quickly, so a static PE partition
//! would load-imbalance. ISOSceles instead reallocates PEs every
//! `scheduler_interval` (100) cycles, proportionally to each layer's MAC
//! demand measured over the *previous* interval. That one-interval lag is
//! the source of the fragmentation underutilization the paper discusses in
//! Sec. VI-B, and this model keeps it.

use serde::{Deserialize, Serialize};

/// Periodic proportional-share PE allocator.
///
/// # Examples
///
/// ```
/// use isosceles::arch::DynamicScheduler;
/// let mut sched = DynamicScheduler::new(4096.0);
/// // First interval: no history, equal shares.
/// let a = sched.allocate(&[100.0, 300.0]);
/// assert_eq!(a, vec![2048.0, 2048.0]);
/// // Second interval: shares follow the previous demand (1:3).
/// let b = sched.allocate(&[100.0, 300.0]);
/// assert_eq!(b, vec![1024.0, 3072.0]);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DynamicScheduler {
    total_pes: f64,
    prev_demand: Option<Vec<f64>>,
}

impl DynamicScheduler {
    /// Creates a scheduler managing `total_pes` MAC units.
    ///
    /// # Panics
    ///
    /// Panics if `total_pes` is not positive.
    pub fn new(total_pes: f64) -> Self {
        assert!(total_pes > 0.0, "need at least one PE");
        Self {
            total_pes,
            prev_demand: None,
        }
    }

    /// Allocates PEs for the next interval given each layer's current
    /// demand (in MACs), using the previous interval's demand as the
    /// proportional-share key. Layers with zero historic demand receive
    /// zero PEs unless *all* history is zero, in which case shares are
    /// equal.
    pub fn allocate(&mut self, demand: &[f64]) -> Vec<f64> {
        let mut shares = Vec::new();
        self.allocate_into(demand, &mut shares);
        shares
    }

    /// [`allocate`](Self::allocate) writing the shares into `out`
    /// (cleared first) and recycling the history buffer, so the
    /// cycle-level interval loop pays no allocation per call. The share
    /// values are bit-identical to [`allocate`](Self::allocate)'s.
    pub fn allocate_into(&mut self, demand: &[f64], out: &mut Vec<f64>) {
        out.clear();
        let total = match &self.prev_demand {
            Some(prev) if prev.len() == demand.len() => prev.iter().sum::<f64>(),
            _ => 0.0,
        };
        if total > 0.0 {
            let prev = self.prev_demand.as_ref().expect("history checked above");
            if prev.len() == 1
                && isos_sim::dram::exact_recip(self.total_pes).is_some()
                && (self.total_pes * prev[0]).is_finite()
            {
                // Single layer, power-of-two PE count: the share expression
                // is `pes * d / d` with `pes * d` exact (a pure exponent
                // shift that neither rounds nor overflows, per the guard),
                // so the correctly-rounded quotient is exactly `pes` — no
                // division needed.
                out.push(self.total_pes);
            } else {
                // Zero-demand layers (gated, starved, or finished) get a
                // share of exactly `pes * 0.0 / total == +0.0`; branching
                // the division away is bit-identical and the drain/gated
                // phases of a pipelined group are mostly zeros.
                out.extend(prev.iter().map(|&d| {
                    if d == 0.0 {
                        0.0
                    } else {
                        self.total_pes * d / total
                    }
                }));
            }
        } else {
            let n = demand.len().max(1) as f64;
            out.resize(demand.len(), self.total_pes / n);
        }
        match &mut self.prev_demand {
            Some(prev) if prev.len() == demand.len() => prev.copy_from_slice(demand),
            Some(prev) => {
                prev.clear();
                prev.extend_from_slice(demand);
            }
            None => self.prev_demand = Some(demand.to_vec()),
        }
    }

    /// Forgets the demand history, as at [`new`](Self::new), but keeps
    /// its buffer. A pooled scheduler must be reset between pipeline
    /// groups: [`allocate_into`](Self::allocate_into) takes any history
    /// of the demand's length as valid, so a group the size of the one
    /// before it would otherwise inherit that group's shares. (An empty
    /// history matches no non-empty demand, and an empty demand gets the
    /// same empty shares either way.)
    pub fn reset(&mut self) {
        if let Some(prev) = &mut self.prev_demand {
            prev.clear();
        }
    }

    /// Total PEs under management.
    pub fn total_pes(&self) -> f64 {
        self.total_pes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_interval_splits_equally() {
        let mut s = DynamicScheduler::new(100.0);
        assert_eq!(s.allocate(&[5.0, 5.0, 5.0, 5.0]), vec![25.0; 4]);
    }

    #[test]
    fn allocation_follows_previous_demand() {
        let mut s = DynamicScheduler::new(100.0);
        s.allocate(&[90.0, 10.0]);
        let a = s.allocate(&[50.0, 50.0]);
        assert_eq!(a, vec![90.0, 10.0]);
        // Next interval reflects the 50/50 demand.
        let b = s.allocate(&[0.0, 0.0]);
        assert_eq!(b, vec![50.0, 50.0]);
    }

    #[test]
    fn zero_history_falls_back_to_equal() {
        let mut s = DynamicScheduler::new(60.0);
        s.allocate(&[0.0, 0.0, 0.0]);
        assert_eq!(s.allocate(&[1.0, 2.0, 3.0]), vec![20.0; 3]);
    }

    #[test]
    fn layer_count_change_resets_shares() {
        let mut s = DynamicScheduler::new(100.0);
        s.allocate(&[10.0, 90.0]);
        // Group changed size: equal shares again.
        assert_eq!(s.allocate(&[1.0, 1.0, 1.0, 1.0]), vec![25.0; 4]);
    }

    #[test]
    fn reset_forgets_history_of_the_same_length() {
        let mut s = DynamicScheduler::new(100.0);
        s.allocate(&[10.0, 90.0]);
        s.reset();
        let mut fresh = DynamicScheduler::new(100.0);
        for demand in [[3.0, 1.0], [0.0, 0.0], [5.0, 5.0]] {
            assert_eq!(s.allocate(&demand), fresh.allocate(&demand));
        }
    }

    #[test]
    fn allocations_sum_to_total() {
        let mut s = DynamicScheduler::new(4096.0);
        s.allocate(&[3.0, 1.0, 7.0]);
        let a = s.allocate(&[1.0, 1.0, 1.0]);
        assert!((a.iter().sum::<f64>() - 4096.0).abs() < 1e-9);
    }
}
