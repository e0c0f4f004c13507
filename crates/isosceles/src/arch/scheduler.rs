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
            if let &[d] = prev.as_slice() {
                out.push(self.lone_share(1, d));
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

    /// `Some(h)` when layer `i`'s previous demand `h > 0` is the only
    /// nonzero entry of a history of `n` entries (see
    /// [`lone_share`](Self::lone_share)).
    pub fn lone_history(&self, i: usize, n: usize) -> Option<f64> {
        let prev = self.prev_demand.as_ref().filter(|p| p.len() == n)?;
        let lone = prev[i] > 0.0 && prev.iter().enumerate().all(|(j, &d)| j == i || d == 0.0);
        lone.then_some(prev[i])
    }

    /// The share [`allocate_into`](Self::allocate_into) gives the one
    /// layer of `n` whose previous demand `h > 0` is the only nonzero
    /// entry of the history, whatever the current demand: the history
    /// sums to exactly `h`, so the share is `pes * h / h`, and every
    /// other layer gets `+0.0`.
    pub fn lone_share(&self, n: usize, h: f64) -> f64 {
        if n == 1
            && isos_sim::dram::exact_recip(self.total_pes).is_some()
            && (self.total_pes * h).is_finite()
        {
            // Single layer, power-of-two PE count: `pes * h` is exact (a
            // pure exponent shift that neither rounds nor overflows, per
            // the guard), so the correctly-rounded quotient is exactly
            // `pes` — no division needed.
            self.total_pes
        } else {
            self.total_pes * h / h
        }
    }

    /// Records `d` as layer `i`'s entry of the demand history, as an
    /// [`allocate_into`](Self::allocate_into) call whose demand differs
    /// from the history only there would.
    ///
    /// # Panics
    ///
    /// Panics if the history has no entry `i`.
    pub fn record_demand(&mut self, i: usize, d: f64) {
        let prev = self.prev_demand.as_mut().expect("no demand history");
        prev[i] = d;
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
    fn lone_share_is_the_share_allocate_gives_the_only_demand_in_history() {
        // 4096 takes the power-of-two shortcut for a single layer; the
        // others divide.
        for pes in [4096.0, 3072.0, 100.0] {
            for n in [1, 3] {
                for h in [1.0, 7.3, 1e-9, 123_456.789] {
                    let mut s = DynamicScheduler::new(pes);
                    let mut history = vec![0.0; n];
                    history[n - 1] = h;
                    s.allocate(&history);
                    assert_eq!(s.lone_history(n - 1, n), Some(h));
                    let share = s.lone_share(n, h);
                    let shares = s.allocate(&vec![5.0; n]);
                    assert_eq!(shares[n - 1].to_bits(), share.to_bits(), "{pes} {n} {h}");
                    assert!(shares[..n - 1].iter().all(|&a| a == 0.0));
                }
            }
        }
    }

    #[test]
    fn lone_history_needs_one_positive_entry_of_the_right_length() {
        let mut s = DynamicScheduler::new(100.0);
        assert_eq!(s.lone_history(0, 2), None, "no history yet");
        s.allocate(&[0.0, 4.0]);
        assert_eq!(s.lone_history(1, 2), Some(4.0));
        assert_eq!(s.lone_history(0, 2), None, "zero at i");
        assert_eq!(s.lone_history(1, 3), None, "other length");
        s.allocate(&[1.0, 4.0]);
        assert_eq!(s.lone_history(1, 2), None, "two demands");
        s.reset();
        assert_eq!(s.lone_history(1, 2), None, "reset");
    }

    #[test]
    fn record_demand_equals_allocating_that_demand() {
        let mut recorded = DynamicScheduler::new(3072.0);
        let mut allocated = DynamicScheduler::new(3072.0);
        for s in [&mut recorded, &mut allocated] {
            s.allocate(&[0.0, 2.5, 0.0]);
        }
        recorded.record_demand(1, 9.75);
        allocated.allocate(&[0.0, 9.75, 0.0]);
        assert_eq!(recorded, allocated);
    }

    #[test]
    fn allocations_sum_to_total() {
        let mut s = DynamicScheduler::new(4096.0);
        s.allocate(&[3.0, 1.0, 7.0]);
        let a = s.allocate(&[1.0, 1.0, 1.0]);
        assert!((a.iter().sum::<f64>() - 4096.0).abs() < 1e-9);
    }
}
