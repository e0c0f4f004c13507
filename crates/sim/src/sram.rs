//! On-chip SRAM buffer models.
//!
//! ISOSceles's on-chip storage (Table I): a 1 MB shared filter buffer
//! (wide-word, heavily banked along input channels, with request
//! coalescing), 8 KB context arrays per lane, and 8 KB of queues per lane.
//! The model tracks capacity, access counts (for energy), and bank
//! conflicts under the coalescing scheme of Sec. IV-A.

use serde::{Deserialize, Serialize};

/// Access counters for an SRAM buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramStats {
    /// Word reads served.
    pub reads: u64,
    /// Word writes served.
    pub writes: u64,
    /// Accesses that conflicted on a bank and stalled a cycle.
    pub bank_conflicts: u64,
    /// Accesses saved by coalescing identical requests.
    pub coalesced: u64,
}

impl SramStats {
    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A banked SRAM buffer.
///
/// # Examples
///
/// ```
/// use isos_sim::sram::Sram;
/// let mut fb = Sram::new("filter-buffer", 1 << 20, 64, 32);
/// assert!(fb.fits(900_000));
/// fb.read_bytes(200); // rounds up to 4 words of 64 bytes
/// assert_eq!(fb.stats().reads, 4);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sram {
    name: String,
    capacity_bytes: u64,
    word_bytes: u32,
    banks: u32,
    stats: SramStats,
}

impl Sram {
    /// Creates a buffer with `capacity_bytes` split into `banks` banks of
    /// `word_bytes`-wide words.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(name: &str, capacity_bytes: u64, word_bytes: u32, banks: u32) -> Self {
        assert!(
            capacity_bytes > 0 && word_bytes > 0 && banks > 0,
            "zero SRAM parameter"
        );
        Self {
            name: name.to_owned(),
            capacity_bytes,
            word_bytes,
            banks,
            stats: SramStats::default(),
        }
    }

    /// The buffer's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Word width in bytes.
    pub fn word_bytes(&self) -> u32 {
        self.word_bytes
    }

    /// Whether `bytes` fits in the buffer.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity_bytes
    }

    /// Records a read of `bytes`, rounded up to whole words.
    pub fn read_bytes(&mut self, bytes: u64) {
        self.stats.reads += bytes.div_ceil(self.word_bytes as u64);
    }

    /// Records a write of `bytes`, rounded up to whole words.
    pub fn write_bytes(&mut self, bytes: u64) {
        self.stats.writes += bytes.div_ceil(self.word_bytes as u64);
    }

    /// Serves one interval's worth of concurrent lane requests to banked
    /// storage with coalescing (paper Sec. IV-A).
    ///
    /// `requests` holds one target bank id per requesting lane. Requests to
    /// the same bank for the same word coalesce into one access (the
    /// "multiple lanes request weights for the same input channel" case);
    /// distinct requests that collide on a bank serialize and are counted
    /// as conflicts. Returns the number of SRAM cycles consumed.
    pub fn serve_banked(&mut self, requests: &[(u32, u64)]) -> u64 {
        use std::collections::HashMap;
        // bank -> set of distinct words requested
        let mut per_bank: HashMap<u32, Vec<u64>> = HashMap::new();
        let mut coalesced = 0u64;
        for &(bank, word) in requests {
            let words = per_bank.entry(bank % self.banks).or_default();
            if words.contains(&word) {
                coalesced += 1;
            } else {
                words.push(word);
            }
        }
        let mut cycles = 0u64;
        let mut conflicts = 0u64;
        for words in per_bank.values() {
            let n = words.len() as u64;
            self.stats.reads += n;
            cycles = cycles.max(n);
            conflicts += n.saturating_sub(1);
        }
        self.stats.bank_conflicts += conflicts;
        self.stats.coalesced += coalesced;
        cycles
    }

    /// Access counters.
    pub fn stats(&self) -> SramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_checks_capacity() {
        let s = Sram::new("ctx", 8 * 1024, 8, 1);
        assert!(s.fits(8 * 1024));
        assert!(!s.fits(8 * 1024 + 1));
    }

    #[test]
    fn byte_accesses_round_up_to_words() {
        let mut s = Sram::new("fb", 1024, 64, 4);
        s.read_bytes(65);
        assert_eq!(s.stats().reads, 2);
        s.write_bytes(64);
        assert_eq!(s.stats().writes, 1);
    }

    #[test]
    fn coalescing_merges_identical_requests() {
        let mut s = Sram::new("fb", 1024, 64, 8);
        // Three lanes ask for the same (bank 2, word 5): one access.
        let cycles = s.serve_banked(&[(2, 5), (2, 5), (2, 5)]);
        assert_eq!(cycles, 1);
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().coalesced, 2);
        assert_eq!(s.stats().bank_conflicts, 0);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut s = Sram::new("fb", 1024, 64, 8);
        // Two distinct words on bank 1, one on bank 3.
        let cycles = s.serve_banked(&[(1, 10), (1, 11), (3, 7)]);
        assert_eq!(cycles, 2);
        assert_eq!(s.stats().bank_conflicts, 1);
    }

    #[test]
    fn banks_wrap_modulo() {
        let mut s = Sram::new("fb", 1024, 64, 4);
        // Banks 0 and 4 alias (4 % 4 == 0) with distinct words: conflict.
        let cycles = s.serve_banked(&[(0, 1), (4, 2)]);
        assert_eq!(cycles, 2);
    }
}
