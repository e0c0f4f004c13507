//! Software cost of the loser-tree merger, counted in key comparisons.
//!
//! `MergerStats` charges the *hardware's* `comparator_levels(k)` per
//! element whatever the software does, so it cannot show the batched
//! leaf replay. This suite counts the comparisons the software engine
//! actually makes instead, through a key type whose `cmp` bumps a
//! thread-local counter. A count is deterministic, so the claim in
//! DESIGN.md §10 holds on any machine, unlike a wall-clock ratio.
//!
//! Two layouts of `radix` streams with 256 keys each bracket the engine:
//! - *block runs*: stream `i` owns keys `[256 i, 256 (i + 1))`, so one
//!   input wins 256 pops in a row and the replay is skipped;
//! - *round-robin*: stream `i` holds keys `j * radix + i`, so the winner
//!   changes on every pop and each pop replays the full path.

use std::cell::Cell;
use std::cmp::Ordering;

use isos_tensor::merge::{comparator_levels, TournamentMerger};

const KEYS_PER_STREAM: u32 = 256;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// A `u32` key that counts every comparison made on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counted(u32);

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn block_runs(radix: u32) -> Vec<Vec<(Counted, f32)>> {
    (0..radix)
        .map(|i| {
            (0..KEYS_PER_STREAM)
                .map(|j| (Counted(i * KEYS_PER_STREAM + j), 1.0))
                .collect()
        })
        .collect()
}

fn round_robin(radix: u32) -> Vec<Vec<(Counted, f32)>> {
    (0..radix)
        .map(|i| {
            (0..KEYS_PER_STREAM)
                .map(|j| (Counted(j * radix + i), 1.0))
                .collect()
        })
        .collect()
}

/// Merges `streams` (construction included) and returns the software
/// comparisons per emitted element. Both layouts cover `0..n` exactly
/// once, so the merge must emit exactly `0..n` in order.
fn comparisons_per_element(streams: Vec<Vec<(Counted, f32)>>) -> f64 {
    let radix = streams.len();
    let n = radix * KEYS_PER_STREAM as usize;
    COMPARISONS.with(|c| c.set(0));
    let mut merger = TournamentMerger::new(streams.into_iter().map(Vec::into_iter).collect());
    let keys: Vec<u32> = merger.by_ref().map(|(k, _)| k.0).collect();
    let counted = COMPARISONS.with(Cell::get);
    assert!(
        keys.iter().copied().eq(0..n as u32),
        "radix {radix}: merge order"
    );
    // The charged hardware cost is independent of the software path.
    let stats = merger.stats();
    assert_eq!(stats.emitted, n as u64);
    assert_eq!(
        stats.comparisons,
        n as u64 * u64::from(comparator_levels(radix))
    );
    counted as f64 / n as f64
}

/// Block runs cost about one comparison per element at every radix: the
/// refilled head is checked against the cached challenger and wins.
#[test]
fn block_runs_cost_one_comparison_per_element() {
    for radix in [4u32, 32, 256] {
        let per_elem = comparisons_per_element(block_runs(radix));
        assert!(
            (0.7..=1.1).contains(&per_elem),
            "radix {radix}: {per_elem:.3} comparisons per element on block runs"
        );
    }
}

/// Round-robin keys defeat the fast path: every pop pays the challenger
/// check, the `log2(k)`-match replay and the challenger rescan, so the
/// cost grows with the tree depth, at least `log2(k)` per element.
#[test]
fn round_robin_replays_the_full_path_on_every_pop() {
    for radix in [4u32, 32, 256] {
        let per_elem = comparisons_per_element(round_robin(radix));
        let levels = f64::from(comparator_levels(radix as usize));
        assert!(
            per_elem >= levels && per_elem <= 2.0 * levels + 1.0,
            "radix {radix}: {per_elem:.3} comparisons per element on round-robin keys"
        );
    }
}

/// DESIGN.md §10's claim: at radix 256 the batched leaf replay makes a
/// merge of block runs at least 12× cheaper in comparisons than the
/// round-robin worst case (15.7× when written).
#[test]
fn batched_replay_beats_round_robin_by_12x_at_radix_256() {
    let mut ratios = Vec::new();
    for radix in [4u32, 32, 256] {
        let runs = comparisons_per_element(block_runs(radix));
        let rr = comparisons_per_element(round_robin(radix));
        ratios.push(rr / runs);
    }
    assert!(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "the gain grows with radix: {ratios:?}"
    );
    assert!(ratios[2] >= 12.0, "radix 256 ratio {:.2}", ratios[2]);
}
