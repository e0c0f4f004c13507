//! Generic statistics primitives shared by all accelerator models.

use serde::{Deserialize, Serialize};

/// A busy/total utilization tracker.
///
/// Accumulates fractional busy cycles against elapsed cycles; the ratio is
/// the utilization reported in paper Figs. 15 and 16.
///
/// # Examples
///
/// ```
/// use isos_sim::stats::Utilization;
/// let mut u = Utilization::new();
/// u.add(50.0, 100);
/// u.add(25.0, 100);
/// assert!((u.ratio() - 0.375).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    busy: f64,
    total: u64,
}

impl Utilization {
    /// A fresh tracker with no elapsed time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `busy` busy cycles out of `elapsed` elapsed cycles.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `busy` exceeds `elapsed`.
    pub fn add(&mut self, busy: f64, elapsed: u64) {
        debug_assert!(
            busy <= elapsed as f64 + 1e-6,
            "busy {busy} > elapsed {elapsed}"
        );
        self.busy += busy;
        self.total += elapsed;
    }

    /// Busy cycles accumulated.
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Total cycles elapsed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Busy fraction in `[0, 1]`; zero if no time has elapsed.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.busy / self.total as f64).min(1.0)
        }
    }

    /// Merges another tracker into this one (e.g. across pipeline phases).
    pub fn merge(&mut self, other: &Utilization) {
        self.busy += other.busy;
        self.total += other.total;
    }
}

/// Geometric mean of a sequence of positive values.
///
/// Used for the paper's gmean speedup summaries. Returns zero for an empty
/// slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_caps_at_one() {
        let mut u = Utilization::new();
        u.add(100.0, 100);
        assert_eq!(u.ratio(), 1.0);
    }

    #[test]
    fn utilization_empty_is_zero() {
        assert_eq!(Utilization::new().ratio(), 0.0);
    }

    #[test]
    fn utilization_merge_combines() {
        let mut a = Utilization::new();
        a.add(10.0, 100);
        let mut b = Utilization::new();
        b.add(90.0, 100);
        a.merge(&b);
        assert!((a.ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gmean_of_identical_is_value() {
        assert!((geometric_mean(&[4.3, 4.3, 4.3]) - 4.3).abs() < 1e-9);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }
}
