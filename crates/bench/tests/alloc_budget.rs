//! Allocation budget of a cold simulation.
//!
//! A simulation should allocate what it returns (the `NetworkMetrics`
//! names and vectors) plus one scratch set per call, never per group,
//! per layer or per interval. A counting global allocator holds every
//! model to that on R96 (72 layers): at most `PER_ENTRY` allocator calls
//! per returned layer or group entry plus a fixed `PER_CALL`. Simulators
//! that build each group's state, scheduler history and merge
//! temporaries afresh make 900 (ISOSceles, 13 groups), 1,885
//! (ISOSceles-single, 56 groups) and 452 (Fused-Layer, 16 groups) calls
//! here, against budgets of 320, 406 and 326.
//!
//! The binary holds this one test, and the counter is per thread, so
//! nothing else the harness runs is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_nn::models::{suite_workload, SUITE_IDS};
use isosceles::accel::Accelerator;
use isosceles::arch::simulate_mapping;
use isosceles::{map_network, ExecMode, IsoscelesConfig};

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

/// Allocator calls allowed per returned layer or group entry: its name,
/// and for an ISOSceles group also the name and member list of its
/// mapping entry.
const PER_ENTRY: u64 = 2;
/// Allocator calls allowed per simulation, whatever the network's size:
/// the returned vectors, the rest of the mapping, and the scratch set
/// with its growth to the largest group.
const PER_CALL: u64 = 150;
/// Allocator calls allowed for the 22 `simulate_mapping` calls of the
/// suite (11 workloads, both execution modes).
const SUITE_BUDGET: u64 = 5_500;

#[test]
fn a_cold_simulation_allocates_what_it_returns() {
    let seed = 1;
    let net = suite_workload("R96", seed).network;
    let models: [&dyn Accelerator; 4] = [
        &IsoscelesConfig::default(),
        &IsoscelesSingleConfig::default(),
        &SpartenConfig::default(),
        &FusedLayerConfig::default(),
    ];
    let mut over = Vec::new();
    for model in models {
        let (calls, m) = counted(|| model.simulate(&net, seed));
        let entries = (m.layers.len() + m.groups.len()) as u64;
        let budget = PER_ENTRY * entries + PER_CALL;
        eprintln!(
            "R96 {}: {calls} allocator calls for {} layers + {} groups (budget {budget})",
            model.name(),
            m.layers.len(),
            m.groups.len()
        );
        if calls > budget {
            over.push(format!("R96 {}: {calls} > {budget}", model.name()));
        }
    }

    // The ISOSceles interval model alone, over the whole suite in both
    // modes.
    let cfg = IsoscelesConfig::default();
    let mut total = 0;
    for id in SUITE_IDS {
        let net = suite_workload(id, seed).network;
        for mode in [ExecMode::Pipelined, ExecMode::SingleLayer] {
            let mapping = map_network(&net, &cfg, mode);
            total += counted(|| simulate_mapping(&net, &cfg, &mapping, seed)).0;
        }
    }
    eprintln!("suite: {total} allocator calls in 22 simulate_mapping calls");
    if total > SUITE_BUDGET {
        over.push(format!("suite simulate_mapping: {total} > {SUITE_BUDGET}"));
    }
    assert!(over.is_empty(), "over budget: {}", over.join("; "));
}
