//! Allocation budget of a design-space sweep.
//!
//! A described point should own what it returns (its label, its name and
//! its level list) and nothing more, and screening should do its
//! per-network work once per memo entry (one mapper plan per distinct
//! [`MapKey`], one network total per distinct output-stationary key, one
//! set of fused-group facts per buffer size and per tile), never once
//! per point. A counting global allocator holds both on the default
//! space and on a space ten times denser (about 108,000 points), which
//! a sweep screens exhaustively with no surrogate.
//!
//! The counter is per thread, so the harness's other threads are not
//! counted. `cargo test --release -p isos-explore --test alloc_budget --
//! --nocapture` prints the counts and the dense sweep's wall times; no
//! wall time is asserted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use isos_baselines::OsKey;
use isos_explore::arch::{lower, Lowered};
use isos_explore::search::screen_arch;
use isos_explore::{ArchPoint, ArchSpace};
use isos_nn::models::suite_workload;
use isosceles::mapping::{ExecMode, MapKey, Mapper};
use isosceles::IsoscelesConfig;

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on this thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for every block; the count touches only a
// const-initialized thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls made on this thread while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// Allocator calls allowed per enumerated point: its label, its name and
/// its level list, plus one to spare.
const PER_POINT: u64 = 4;

#[test]
fn enumerating_the_default_space_allocates_what_each_point_owns() {
    let space = ArchSpace::default();
    let (calls, points) = counted(|| space.enumerate());
    assert_eq!(points.len(), space.len());
    let n = points.len() as u64;
    eprintln!(
        "ArchSpace::default().enumerate(): {calls} allocator calls for {n} points ({:.2} per point)",
        calls as f64 / n as f64
    );
    assert!(
        calls <= PER_POINT * n,
        "{calls} allocator calls > {PER_POINT} per point x {n} points"
    );
}

/// The default space made ten times denser: twice the lane counts and
/// five times the bandwidths, every other axis as it is. Both dense axes
/// reach every family, and the lane axis also doubles the distinct
/// mapper plans.
fn dense_space() -> ArchSpace {
    ArchSpace {
        lanes: vec![
            8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384,
        ],
        dram_bytes_per_cycle: (1..=20).map(|i| f64::from(32 * i)).collect(),
        ..ArchSpace::default()
    }
}

/// The distinct memo entries screening `points` may build: mapper plans
/// (one per [`MapKey`]), output-stationary totals (one per [`OsKey`]),
/// and fused-group facts (one set per filter-buffer size, one per size
/// and tile).
struct MemoEntries {
    /// Each distinct map key, with a configuration that has it.
    map_keys: HashMap<MapKey, (IsoscelesConfig, ExecMode)>,
    is_os_points: usize,
    os_keys: usize,
    fused: usize,
}

impl MemoEntries {
    fn of(points: &[ArchPoint]) -> Self {
        let mut map_keys = HashMap::new();
        let mut is_os_points = 0;
        let mut os_keys = HashSet::new();
        let mut fused_sizes = HashSet::new();
        let mut fused_tiles = HashSet::new();
        for p in points {
            match lower(&p.desc).expect("space points are valid") {
                Lowered::IsOs { cfg, mode } => {
                    is_os_points += 1;
                    map_keys.insert(MapKey::of(&cfg, mode), (cfg, mode));
                }
                Lowered::OutputStationary(cfg) => {
                    os_keys.insert(OsKey::of(&cfg));
                }
                Lowered::FusedTile(cfg) => {
                    fused_sizes.insert(cfg.filter_buffer_bytes);
                    fused_tiles.insert((cfg.filter_buffer_bytes, cfg.tile));
                }
            }
        }
        Self {
            map_keys,
            is_os_points,
            os_keys: os_keys.len(),
            fused: fused_sizes.len() + fused_tiles.len(),
        }
    }

    /// Entries other than mapper plans.
    fn others(&self) -> u64 {
        (self.os_keys + self.fused) as u64
    }
}

/// Allocator calls `screen_arch` makes per point beyond the memo: the
/// returned clone of the point (label, name, level list).
const SCREEN_PER_POINT: u64 = 3;
/// Allocator calls allowed per mapper plan: its groups (a name and a
/// member list each, 13 to 56 groups on R96), its summed work and the
/// memo tables' growth.
const PER_PLAN: u64 = 150;
/// Allocator calls allowed per other memo entry: a fused facts set, and
/// the memo tables' growth.
const PER_ENTRY: u64 = 20;
/// Allocator calls allowed per screen whatever its size: the mapper and
/// the network facts, the score, rank and result vectors.
const PER_SCREEN: u64 = 2_000;

#[test]
fn a_ten_times_denser_sweep_plans_once_per_map_key() {
    let w = suite_workload("R96", 1);
    let space = dense_space();
    assert_eq!(space.len(), 10 * ArchSpace::default().len());

    let start = Instant::now();
    let points = space.enumerate();
    let enumerate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (calls, screened) = counted(|| screen_arch(&w, &points).expect("space points are valid"));
    let screen_s = start.elapsed().as_secs_f64();
    assert_eq!(screened.len(), points.len());

    let memo = MemoEntries::of(&points);
    let n = points.len() as u64;
    let plans = memo.map_keys.len() as u64;
    let budget = SCREEN_PER_POINT * n + PER_PLAN * plans + PER_ENTRY * memo.others() + PER_SCREEN;
    eprintln!(
        "dense space on R96: {n} points ({} IS-OS) enumerated in {:.1} ms, screened in {:.1} ms \
         with {calls} allocator calls (budget {budget}); memo entries: {} map keys, {} \
         output-stationary keys, {} fused",
        memo.is_os_points,
        enumerate_s * 1e3,
        screen_s * 1e3,
        memo.map_keys.len(),
        memo.os_keys,
        memo.fused,
    );

    // Plans scale with distinct map keys, not with points: the dense
    // space has ten times the points but only twice the keys.
    let default_memo = MemoEntries::of(&ArchSpace::default().enumerate());
    assert_eq!(memo.is_os_points, 10 * default_memo.is_os_points);
    assert_eq!(memo.map_keys.len(), 2 * default_memo.map_keys.len());

    // The budget separates the two: one plan per IS-OS point would make
    // at least as many allocator calls per point as the cheapest plan
    // makes, and that is over the budget.
    let mapper = Mapper::new(&w.network);
    let plan_calls: Vec<u64> = memo
        .map_keys
        .values()
        .map(|(cfg, mode)| counted(|| mapper.map(cfg, *mode)).0)
        .collect();
    let cheapest = *plan_calls.iter().min().expect("the space has IS-OS points");
    let dearest = *plan_calls.iter().max().expect("the space has IS-OS points");
    eprintln!("one plan on R96: {cheapest} to {dearest} allocator calls");
    assert!(dearest < PER_PLAN, "a plan makes {dearest} allocator calls");
    assert!(
        cheapest * memo.is_os_points as u64 > budget,
        "planning per point ({cheapest} calls x {} points) would fit the budget {budget}",
        memo.is_os_points
    );
    assert!(
        calls <= budget,
        "screening made {calls} allocator calls > budget {budget}"
    );
}
