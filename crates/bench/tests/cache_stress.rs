//! Concurrency stress tests for the sharded, LRU-bounded cache store:
//! many threads hammering mixed hit/miss/evict/quarantine traffic on a
//! tiny byte budget must never return a torn or foreign entry or leave
//! a temp file behind, and must never let the on-disk footprint exceed
//! the bound.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isosceles_bench::cache::{CacheStore, EntryMeta};
use isosceles_bench::engine::WorkloadId;

fn scratch_root(tag: &str) -> PathBuf {
    static NONCE: AtomicU32 = AtomicU32::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("isos-cachestress-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn meta(i: u64) -> EntryMeta {
    EntryMeta {
        accel: "stress".into(),
        accel_key: 0xdead,
        workload: WorkloadId::new(format!("W{i}")),
        seed: i,
    }
}

fn metrics(i: u64) -> NetworkMetrics {
    NetworkMetrics {
        total: RunMetrics {
            cycles: i + 1,
            weight_traffic: i as f64,
            ..RunMetrics::default()
        },
        ..NetworkMetrics::default()
    }
}

/// Key `i` spread across all 16 shards.
fn key(i: u64) -> u64 {
    (i % 16) << 60 | i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 8
}

#[test]
fn concurrent_writers_hold_byte_bound_and_store_integrity() {
    const THREADS: u64 = 8;
    const OPS: u64 = 120;
    const KEYS: u64 = 96;
    // Entries are ~345 bytes; a 16 KiB budget (1 KiB per shard, ~2 entries)
    // against 6 live keys per shard forces constant evictions.
    const BOUND: u64 = 16 * 1024;

    let store = CacheStore::open(scratch_root("mixed"), Some(BOUND));
    let barrier = Barrier::new(THREADS as usize);

    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let store = &store;
            let barrier = &barrier;
            s.spawn(move |_| {
                barrier.wait();
                for op in 0..OPS {
                    // Deterministic per-thread walk over a key set small
                    // enough to collide constantly. Every op loads; every
                    // third op writes the same key first, so hit, miss,
                    // overwrite, and evict paths all stay hot. (Careful:
                    // the index is affine in (t, op), so deciding *writes*
                    // by an affine test like `(t + op) % 3` would pin all
                    // written keys to one residue class mod 3 and starve
                    // eviction entirely.)
                    let i = (t * 31 + op * 7) % KEYS;
                    if op % 3 == 0 {
                        store.store(key(i), &meta(i), &metrics(i));
                    }
                    if let Some(m) = store.load(key(i), &meta(i)) {
                        // A hit must always carry the value the key was
                        // stored under — never a torn or foreign entry.
                        assert_eq!(m, metrics(i), "key {i} returned wrong metrics");
                    }
                    // Periodically verify invariants *during* the storm,
                    // not just after it.
                    if op % 40 == 39 {
                        store.verify().expect("mid-storm invariants");
                    }
                }
            });
        }
    })
    .expect("stress worker panicked");

    let usage = store.verify().expect("post-storm invariants");
    assert!(
        usage.bytes <= BOUND,
        "{} bytes on disk exceeds the {BOUND}-byte bound",
        usage.bytes
    );
    let c = store.counters();
    assert!(
        c.writes > 0 && c.hits > 0 && c.evicted_entries > 0,
        "storm exercised every path: {c}"
    );
    // No stray temp files survived the atomic-rename protocol.
    for shard in 0..16 {
        let dir = store.root().join(format!("{shard:x}"));
        let Ok(files) = std::fs::read_dir(&dir) else {
            continue;
        };
        for f in files.flatten() {
            let name = f.file_name().to_string_lossy().into_owned();
            assert!(
                !name.contains(".tmp."),
                "leftover temp file {name} in shard {shard:x}"
            );
        }
    }
}

#[test]
fn concurrent_quarantine_and_recompute_self_heals() {
    // Poison a subset of entries, then race readers and writers over
    // them: every poisoned slot must be quarantined exactly once and
    // healed by the next store, with the store staying consistent.
    let store = CacheStore::open(scratch_root("poison"), None);
    const KEYS: u64 = 24;
    for i in 0..KEYS {
        store.store(key(i), &meta(i), &metrics(i));
    }
    for i in (0..KEYS).step_by(3) {
        std::fs::write(store.entry_path(key(i)), "{ poisoned").unwrap();
    }

    crossbeam::thread::scope(|s| {
        for t in 0..6u64 {
            let store = &store;
            s.spawn(move |_| {
                for round in 0..3u64 {
                    for i in 0..KEYS {
                        if store.load(key(i), &meta(i)).is_none() {
                            store.store(key(i), &meta(i), &metrics(i));
                        }
                    }
                    let _ = (t, round);
                }
            });
        }
    })
    .expect("poison worker panicked");

    // Every slot healed: all keys hit, nothing left to quarantine.
    for i in 0..KEYS {
        assert_eq!(store.load(key(i), &meta(i)), Some(metrics(i)), "key {i}");
    }
    let c = store.counters();
    assert_eq!(
        c.quarantined,
        KEYS / 3,
        "each poisoned entry quarantined once"
    );
    store.verify().expect("healed store is consistent");
}
