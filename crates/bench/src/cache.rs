//! The sharded, LRU-bounded persistent result store.
//!
//! Entries live in 16 shard directories keyed by the top nibble of the
//! job hash. A shard directory is its own index: its listing holds every
//! entry's size, and each file's mtime is its last access. The store is
//! the single persistence layer behind both the CLI
//! [`SuiteEngine`](crate::engine::SuiteEngine) and the long-running
//! `isos-serve` server, so its guarantees matter:
//!
//! - **Atomic writes**: entries are written to a temp file and renamed
//!   into place, so concurrent writers (threads of one process, or a
//!   server and a CLI run racing on the same directory) never expose
//!   half-written JSON.
//! - **LRU byte bound**: an optional `--cache-bytes` / `ISOS_CACHE_BYTES`
//!   budget is split evenly across the 16 shards; a store that pushes a
//!   shard over its slice evicts the entries with the oldest mtime until
//!   it fits, so total on-disk bytes never exceed the budget. Stores and
//!   hits set the mtime to the current time, so recency persists across
//!   processes with nothing else to keep in step.
//! - **Quarantine, not silent overwrite**: corrupt, truncated, or
//!   unknown-schema entry files are renamed to `*.bad` and recomputed
//!   once; the store self-heals instead of re-tripping on (or silently
//!   clobbering) the same poisoned file every run. Any other file in a
//!   shard directory (a `manifest.json` left by an older layout,
//!   `*.bad`, temp files) is ignored.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use isos_sim::metrics::NetworkMetrics;
use serde::json::{Reader, Source, Value};
use serde::{Deserialize, Serialize};

use crate::engine::{WorkloadId, SCHEMA_VERSION};

/// Number of shard directories (`0/` through `f/`, by top hash nibble).
pub const SHARD_COUNT: usize = 16;

/// The key fields an entry must match to count as a hit. Stored inside
/// every entry file and revalidated on load, so a hash collision or a
/// stale configuration degrades to a recompute instead of wrong numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    /// Accelerator model name.
    pub accel: String,
    /// Stable hash of the accelerator configuration.
    pub accel_key: u64,
    /// Workload the metrics belong to.
    pub workload: WorkloadId,
    /// RNG seed of the run.
    pub seed: u64,
}

/// On-disk layout of one memoized job result.
///
/// `kind` discriminates what the `payload` tree decodes to (`"metrics"`
/// for single-inference [`NetworkMetrics`] rows, `"stream"` for
/// streaming rows), so heterogeneous row types share one store without
/// one kind's entry ever decoding as another's. A store renders it
/// through [`into_tree`](EntryFile::into_tree), which moves the payload
/// instead of copying it. A hit never builds one: [`decode_hit`] reads
/// the header and the typed payload straight from the text. Only a load
/// that did not hit decodes the whole file as an `EntryFile`, to tell a
/// poisoned file from a plain mismatch.
#[derive(Debug, Deserialize)]
struct EntryFile {
    schema: u32,
    kind: String,
    accel: String,
    accel_key: u64,
    workload: WorkloadId,
    seed: u64,
    payload: Value,
}

impl EntryFile {
    fn into_tree(self) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("kind".to_string(), self.kind.to_value()),
            ("accel".to_string(), self.accel.to_value()),
            ("accel_key".to_string(), self.accel_key.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("payload".to_string(), self.payload),
        ])
    }
}

/// Decodes the entry file `text` in one pass if it is a hit: a current
/// schema, header fields equal to `kind` and `expect`, and a payload that
/// decodes as `T`. Keys may come in any order; as in every decode, the
/// first occurrence of a key wins and unknown keys are skipped. `None`
/// for anything else, as early as the text shows it.
fn decode_hit<T: Deserialize>(text: &str, kind: &str, expect: &EntryMeta) -> Option<T> {
    let mut src = Reader::new(text);
    // Header fields seen so far, in `EntryFile` order.
    let mut seen = [false; 6];
    let mut payload = None;
    src.begin_object().ok()?;
    while let Some(key) = src.next_key().ok()? {
        // `WorkloadId` is a newtype over its string, so comparing the
        // borrowed string is its decode and comparison in one.
        let (field, matches) = match &*key {
            "schema" if !seen[0] => (0, u32::deserialize(&mut src).ok()? == SCHEMA_VERSION),
            "kind" if !seen[1] => (1, src.str().ok()? == kind),
            "accel" if !seen[2] => (2, src.str().ok()? == expect.accel),
            "accel_key" if !seen[3] => (3, u64::deserialize(&mut src).ok()? == expect.accel_key),
            "workload" if !seen[4] => (4, src.str().ok()? == expect.workload.as_str()),
            "seed" if !seen[5] => (5, u64::deserialize(&mut src).ok()? == expect.seed),
            "payload" if payload.is_none() => {
                payload = Some(T::deserialize(&mut src).ok()?);
                continue;
            }
            _ => {
                src.skip().ok()?;
                continue;
            }
        };
        if !matches {
            return None;
        }
        seen[field] = true;
    }
    src.finish().ok()?;
    payload.filter(|_| seen == [true; 6])
}

/// Whether an entry file that did not hit is still sound, so the load
/// is a plain miss (a key-field mismatch or a payload of another shape)
/// rather than a file to quarantine (malformed JSON, a missing or
/// mistyped header field, or an unknown schema version).
fn is_sound(text: &str) -> bool {
    serde::json::from_str::<EntryFile>(text).is_ok_and(|entry| entry.schema == SCHEMA_VERSION)
}

/// Lifetime operation counters for one store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Loads that returned valid metrics.
    pub hits: u64,
    /// Loads that found nothing usable.
    pub misses: u64,
    /// Entries written (including overwrites).
    pub writes: u64,
    /// Corrupt/unknown-schema files renamed to `*.bad`.
    pub quarantined: u64,
    /// Entries evicted to hold the byte bound.
    pub evicted_entries: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

/// Current on-disk footprint of a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreUsage {
    /// Live entries across all shards.
    pub entries: usize,
    /// Bytes those entry files occupy.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct AtomicCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    evicted_entries: AtomicU64,
    evicted_bytes: AtomicU64,
}

/// One entry file found in a shard listing.
struct Listed {
    path: PathBuf,
    bytes: u64,
    modified: SystemTime,
}

/// The sharded, LRU-bounded persistent cache. See the [module docs](self).
#[derive(Debug)]
pub struct CacheStore {
    root: PathBuf,
    /// Total byte budget; `None` = unbounded.
    byte_limit: Option<u64>,
    /// Per-shard slice of the budget (`byte_limit / SHARD_COUNT`).
    shard_limit: Option<u64>,
    /// One lock per shard, so a quarantine or an eviction never races
    /// a store of the same shard within this process.
    locks: [Mutex<()>; SHARD_COUNT],
    counters: AtomicCounters,
}

impl CacheStore {
    /// Opens (creating if needed) a store rooted at `root`, bounded to
    /// `byte_limit` total bytes (`None` = unbounded).
    pub fn open(root: impl Into<PathBuf>, byte_limit: Option<u64>) -> Self {
        let root = root.into();
        let store = Self {
            root,
            byte_limit,
            shard_limit: byte_limit.map(|b| b / SHARD_COUNT as u64),
            locks: std::array::from_fn(|_| Mutex::new(())),
            counters: AtomicCounters::default(),
        };
        let _ = std::fs::create_dir_all(&store.root);
        store
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The total byte budget, if bounded.
    pub fn byte_limit(&self) -> Option<u64> {
        self.byte_limit
    }

    /// Snapshot of the lifetime operation counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            evicted_entries: self.counters.evicted_entries.load(Ordering::Relaxed),
            evicted_bytes: self.counters.evicted_bytes.load(Ordering::Relaxed),
        }
    }

    /// Loads the single-inference metrics row for `key`, validating it
    /// against `expect`. Shorthand for
    /// [`load_payload`](Self::load_payload) with kind `"metrics"`.
    pub fn load(&self, key: u64, expect: &EntryMeta) -> Option<NetworkMetrics> {
        self.load_payload(key, "metrics", expect)
    }

    /// Persists a single-inference metrics row under `key`. Shorthand
    /// for [`store_payload`](Self::store_payload) with kind `"metrics"`.
    pub fn store(&self, key: u64, meta: &EntryMeta, metrics: &NetworkMetrics) {
        self.store_payload(key, "metrics", meta, metrics);
    }

    /// Loads the entry for `key`, validating it against `kind` and
    /// `expect` and decoding its payload as `T`.
    ///
    /// A hit sets the entry file's mtime to now, which is its LRU
    /// recency; a miss writes nothing. Corrupt or unknown-schema files
    /// are quarantined (renamed `*.bad`); kind/key-field mismatches
    /// (hash collision or stale config) and undecodable payloads read as
    /// a plain miss and are overwritten by the subsequent store.
    pub fn load_payload<T: Deserialize>(
        &self,
        key: u64,
        kind: &str,
        expect: &EntryMeta,
    ) -> Option<T> {
        let hit = self.lookup(key, kind, expect);
        if hit.is_none() {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`load_payload`](Self::load_payload) without counting a miss, for
    /// the re-check of a key whose load just missed.
    pub(crate) fn lookup<T: Deserialize>(
        &self,
        key: u64,
        kind: &str,
        meta: &EntryMeta,
    ) -> Option<T> {
        let shard = shard_of(key);
        let _guard = self.locks[shard].lock().expect("shard lock poisoned");
        let path = self.entry_path(key);
        // A file that is gone (evicted, or never written) or unreadable
        // is a plain miss.
        let mut file = File::open(&path).ok()?;
        let size = file.metadata().map_or(0, |m| m.len() as usize);
        let mut text = String::with_capacity(size);
        file.read_to_string(&mut text).ok()?;
        let Some(payload) = decode_hit(&text, kind, meta) else {
            // Corrupt, truncated, or from an unknown schema version:
            // quarantine so the next run does not trip on it again.
            if !is_sound(&text) {
                self.quarantine(&path);
            }
            return None;
        };
        // Best effort: a file that refuses the stamp is still a hit.
        let _ = file.set_modified(SystemTime::now());
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(payload)
    }

    /// Persists `payload` under `key` with the given row `kind`,
    /// evicting least-recently-used entries if the shard's byte slice
    /// would be exceeded. Failures are swallowed: the cache is an
    /// optimization, not a correctness requirement.
    pub fn store_payload<T: Serialize>(&self, key: u64, kind: &str, meta: &EntryMeta, payload: &T) {
        let entry = EntryFile {
            schema: SCHEMA_VERSION,
            kind: kind.to_string(),
            accel: meta.accel.clone(),
            accel_key: meta.accel_key,
            workload: meta.workload.clone(),
            seed: meta.seed,
            payload: payload.to_value(),
        };
        let text = entry.into_tree().render();

        let shard = shard_of(key);
        let _guard = self.locks[shard].lock().expect("shard lock poisoned");
        let dir = self.shard_dir(shard);
        let _ = std::fs::create_dir_all(&dir);
        if !atomic_write(&dir.join(entry_file_name(key)), text.as_bytes()) {
            return;
        }
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.shard_limit {
            self.evict_over_limit(&dir, limit);
        }
    }

    /// Live entry count and byte total, summed over all shard listings.
    pub fn usage(&self) -> StoreUsage {
        let mut usage = StoreUsage::default();
        for shard in 0..SHARD_COUNT {
            let shard_usage = self.shard_usage(shard);
            usage.entries += shard_usage.entries;
            usage.bytes += shard_usage.bytes;
        }
        usage
    }

    /// Integrity check for tests and tooling: every bounded shard must
    /// hold its byte slice.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<StoreUsage, String> {
        let mut usage = StoreUsage::default();
        for shard in 0..SHARD_COUNT {
            let shard_usage = self.shard_usage(shard);
            if let Some(limit) = self.shard_limit {
                if shard_usage.bytes > limit {
                    return Err(format!(
                        "shard {shard:x} holds {} bytes, over its {limit}-byte slice",
                        shard_usage.bytes
                    ));
                }
            }
            usage.entries += shard_usage.entries;
            usage.bytes += shard_usage.bytes;
        }
        Ok(usage)
    }

    /// Path the entry for `key` lives at (whether or not it exists).
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.shard_dir(shard_of(key)).join(entry_file_name(key))
    }

    /// Renames a poisoned entry to `<name>.bad` (best effort).
    fn quarantine(&self, path: &Path) {
        let bad = path.with_extension("json.bad");
        if std::fs::rename(path, &bad).is_ok() {
            self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts the entries with the oldest mtime until the shard in `dir`
    /// fits `limit`. The freshly written entry is eligible too: a bound
    /// smaller than one entry means the store holds nothing, not "a bit
    /// over".
    fn evict_over_limit(&self, dir: &Path, limit: u64) {
        let mut entries = list_entries(dir);
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total <= limit {
            return;
        }
        entries.sort_unstable_by_key(|e| e.modified);
        for victim in entries {
            if total <= limit {
                break;
            }
            total -= victim.bytes;
            if std::fs::remove_file(&victim.path).is_ok() {
                self.counters
                    .evicted_entries
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .evicted_bytes
                    .fetch_add(victim.bytes, Ordering::Relaxed);
            }
        }
    }

    /// Entry count and bytes of one shard, listed under its lock.
    fn shard_usage(&self, shard: usize) -> StoreUsage {
        let _guard = self.locks[shard].lock().expect("shard lock poisoned");
        let entries = list_entries(&self.shard_dir(shard));
        StoreUsage {
            entries: entries.len(),
            bytes: entries.iter().map(|e| e.bytes).sum(),
        }
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("{shard:x}"))
    }
}

impl fmt::Display for StoreCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} writes / {} evicted / {} quarantined",
            self.hits, self.misses, self.writes, self.evicted_entries, self.quarantined
        )
    }
}

/// Shard index of a key: its top hex nibble.
fn shard_of(key: u64) -> usize {
    (key >> 60) as usize
}

/// File name of an entry (`<016x>.json`).
fn entry_file_name(key: u64) -> String {
    format!("{key:016x}.json")
}

/// Parses `<016x>.json` back into its key; `None` for anything else
/// (old manifests, quarantined files, temp files).
fn entry_key_of(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The entry files in a shard directory, with their sizes and mtimes.
/// Files that vanish mid-listing (a peer's eviction) are skipped.
fn list_entries(dir: &Path) -> Vec<Listed> {
    let Ok(dir_iter) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    dir_iter
        .flatten()
        .filter(|file| entry_key_of(&file.file_name().to_string_lossy()).is_some())
        .filter_map(|file| {
            let meta = file.metadata().ok()?;
            Some(Listed {
                path: file.path(),
                bytes: meta.len(),
                modified: meta.modified().ok()?,
            })
        })
        .collect()
}

/// Writes `bytes` to `path` via a uniquely named temp file and an atomic
/// rename; returns whether the write landed. The temp file's mtime is set
/// to now before the rename: kernel timestamps are only as fine as the
/// timer tick, so stores in quick succession would otherwise tie in LRU
/// order.
fn atomic_write(path: &Path, bytes: &[u8]) -> bool {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.set_modified(SystemTime::now())
    });
    if written.is_err() || std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Parses a byte-size string: plain bytes, or with a `k`/`m`/`g` suffix
/// (optionally followed by `b`), case-insensitive: `65536`, `64k`,
/// `512MB`, `2g`.
pub fn parse_byte_size(text: &str) -> Option<u64> {
    let t = text.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = t.strip_suffix("kb").or_else(|| t.strip_suffix('k')) {
        (d, 1u64 << 10)
    } else if let Some(d) = t.strip_suffix("mb").or_else(|| t.strip_suffix('m')) {
        (d, 1 << 20)
    } else if let Some(d) = t.strip_suffix("gb").or_else(|| t.strip_suffix('g')) {
        (d, 1 << 30)
    } else {
        (t.as_str(), 1)
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_sim::metrics::{NetworkMetrics, RunMetrics};
    use std::sync::atomic::AtomicU32;

    fn scratch_root(tag: &str) -> PathBuf {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("isos-cache-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(i: u64) -> EntryMeta {
        EntryMeta {
            accel: "testaccel".into(),
            accel_key: 42,
            workload: WorkloadId::new(format!("W{i}")),
            seed: 7,
        }
    }

    fn metrics(cycles: u64) -> NetworkMetrics {
        NetworkMetrics {
            total: RunMetrics {
                cycles,
                ..RunMetrics::default()
            },
            ..NetworkMetrics::default()
        }
    }

    #[test]
    fn store_load_roundtrip_and_counters() {
        let store = CacheStore::open(scratch_root("roundtrip"), None);
        let m = metrics(123);
        store.store(0xabcd, &meta(1), &m);
        assert_eq!(store.load(0xabcd, &meta(1)), Some(m));
        // Different expectation (other workload): miss, no quarantine.
        assert_eq!(store.load(0xabcd, &meta(2)), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes, c.quarantined), (1, 1, 1, 0));
        assert_eq!(store.usage().entries, 1);
    }

    #[test]
    fn multibyte_and_escaped_names_roundtrip() {
        let store = CacheStore::open(scratch_root("unicode"), None);
        let meta = EntryMeta {
            workload: WorkloadId::new("Réseau-😀 \"q\" \\ \u{1}\n"),
            ..meta(0)
        };
        let mut m = metrics(31);
        m.layers = ["conv1/ç", "块\t2", "end\"\\"]
            .iter()
            .zip(1u64..)
            .map(|(name, cycles)| {
                let run = RunMetrics {
                    cycles,
                    ..RunMetrics::default()
                };
                (name.to_string(), run)
            })
            .collect();
        store.store(0xc0ffee, &meta, &m);
        assert_eq!(store.load(0xc0ffee, &meta), Some(m));
        assert_eq!(store.counters().quarantined, 0);
    }

    #[test]
    fn keys_spread_across_shard_directories() {
        let root = scratch_root("shards");
        let store = CacheStore::open(&root, None);
        for i in 0..SHARD_COUNT as u64 {
            let key = i << 60 | 0x1111;
            store.store(key, &meta(i), &metrics(i));
        }
        for shard in 0..SHARD_COUNT {
            let dir = root.join(format!("{shard:x}"));
            let entries = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|f| {
                    entry_key_of(&f.as_ref().unwrap().file_name().to_string_lossy()).is_some()
                })
                .count();
            assert_eq!(entries, 1, "shard {shard:x} holds exactly its key");
        }
        assert_eq!(store.verify().unwrap().entries, SHARD_COUNT);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_store_self_heals() {
        let store = CacheStore::open(scratch_root("quarantine"), None);
        let key = 0x7777;
        store.store(key, &meta(1), &metrics(9));
        let path = store.entry_path(key);
        std::fs::write(&path, "{ truncated garb").unwrap();

        // First load: quarantined, miss.
        assert_eq!(store.load(key, &meta(1)), None);
        assert!(!path.exists(), "poisoned entry removed from its slot");
        assert!(
            path.with_extension("json.bad").exists(),
            "poisoned entry preserved as *.bad"
        );
        assert_eq!(store.counters().quarantined, 1);
        store.verify().expect("store consistent after quarantine");

        // Recompute-once: a single store heals the slot for good.
        store.store(key, &meta(1), &metrics(9));
        assert_eq!(store.load(key, &meta(1)), Some(metrics(9)));
        assert_eq!(store.counters().quarantined, 1, "no re-quarantine");
    }

    #[test]
    fn unknown_schema_entry_is_quarantined() {
        let store = CacheStore::open(scratch_root("schema"), None);
        let key = 0x1234_5678;
        store.store(key, &meta(1), &metrics(1));
        let path = store.entry_path(key);
        let text = std::fs::read_to_string(&path).unwrap();
        let future = text.replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 9),
            1,
        );
        assert_ne!(future, text);
        std::fs::write(&path, future).unwrap();
        assert_eq!(store.load(key, &meta(1)), None);
        assert!(path.with_extension("json.bad").exists());
        assert_eq!(store.counters().quarantined, 1);
    }

    #[test]
    fn lru_eviction_holds_the_byte_bound() {
        // One entry is ~160 bytes; a 16 KiB budget gives each shard a
        // 1 KiB slice, so a few entries per shard force evictions.
        let store = CacheStore::open(scratch_root("lru"), Some(16 * 1024));
        let shard_keys: Vec<u64> = (0..40).map(|i| (3u64 << 60) | i).collect();
        for (i, &key) in shard_keys.iter().enumerate() {
            store.store(key, &meta(i as u64), &metrics(i as u64));
        }
        let usage = store
            .verify()
            .expect("byte bound and store invariants hold");
        assert!(usage.bytes <= 16 * 1024);
        assert!(store.counters().evicted_entries > 0, "evictions happened");
        // The most recently written key survived; the oldest did not.
        assert!(store.load(*shard_keys.last().unwrap(), &meta(39)).is_some());
        assert!(store.load(shard_keys[0], &meta(0)).is_none());
    }

    #[test]
    fn hits_refresh_recency() {
        // 4 KiB per shard ≈ 11 entries of ~345 bytes each.
        let store = CacheStore::open(scratch_root("recency"), Some(64 * 1024));
        let keyed = |i: u64| (5u64 << 60) | i;
        // Fill with 0..4, then keep touching key 0 while inserting more:
        // key 0 must survive the evictions that claim its cohort.
        for i in 0..4 {
            store.store(keyed(i), &meta(i), &metrics(i));
        }
        for i in 4..24 {
            assert!(store.load(keyed(0), &meta(0)).is_some(), "insert {i}");
            store.store(keyed(i), &meta(i), &metrics(i));
        }
        assert!(store.load(keyed(0), &meta(0)).is_some());
        assert!(store.load(keyed(1), &meta(1)).is_none(), "LRU victim");
    }

    #[test]
    fn entries_are_shared_across_store_instances() {
        let root = scratch_root("shared");
        let writer = CacheStore::open(&root, None);
        let key = 0x42;
        writer.store(key, &meta(1), &metrics(5));
        let bytes = std::fs::metadata(writer.entry_path(key)).unwrap().len();

        // A second store on the same root (another process, say) knows
        // nothing of the first: the shard listing is the whole index.
        let reader = CacheStore::open(&root, None);
        assert_eq!(reader.load(key, &meta(1)), Some(metrics(5)));
        assert_eq!(reader.usage(), StoreUsage { entries: 1, bytes });
    }

    /// Names, sizes and mtimes of every file in a shard directory.
    fn shard_listing(dir: &Path) -> Vec<(String, u64, SystemTime)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| {
                let f = f.unwrap();
                let meta = f.metadata().unwrap();
                let name = f.file_name().to_string_lossy().into_owned();
                (name, meta.len(), meta.modified().unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_miss_writes_nothing() {
        let store = CacheStore::open(scratch_root("misswrite"), Some(64 * 1024));
        let key = (9u64 << 60) | 1;
        store.store(key, &meta(1), &metrics(3));
        let dir = store.entry_path(key).parent().unwrap().to_path_buf();
        let before = shard_listing(&dir);

        // Same shard, no such key.
        assert_eq!(store.load((9u64 << 60) | 2, &meta(2)), None);
        // The right key under another workload: a key-field mismatch.
        assert_eq!(store.load(key, &meta(2)), None);

        assert_eq!(store.counters().misses, 2);
        assert_eq!(shard_listing(&dir), before);
    }

    #[test]
    fn recency_crosses_store_instances() {
        // 4 KiB per shard; fill it with as many entries as fit.
        let root = scratch_root("crossrecency");
        let a = CacheStore::open(&root, Some(64 * 1024));
        let keyed = |i: u64| (6u64 << 60) | i;
        a.store(keyed(0), &meta(0), &metrics(0));
        let bytes = std::fs::metadata(a.entry_path(keyed(0))).unwrap().len();
        let fill = 4096 / (bytes + 16);
        for i in 1..fill {
            a.store(keyed(i), &meta(i), &metrics(i));
        }
        assert_eq!(a.counters().evicted_entries, 0, "the shard just fits");

        // Another instance hits key 0; the first keeps storing and has
        // to evict.
        let b = CacheStore::open(&root, None);
        assert!(b.load(keyed(0), &meta(0)).is_some());
        for i in fill..fill + 4 {
            a.store(keyed(i), &meta(i), &metrics(i));
        }
        assert!(a.counters().evicted_entries > 0);
        assert!(a.load(keyed(0), &meta(0)).is_some(), "refreshed by b");
        assert!(a.load(keyed(1), &meta(1)).is_none(), "LRU victim");
    }

    #[test]
    fn payload_kinds_do_not_alias() {
        let store = CacheStore::open(scratch_root("kinds"), None);
        store.store_payload(0x99, "stream", &meta(1), &metrics(4));
        // A metrics-kind load at the same key must not see the stream
        // row, and vice versa.
        assert_eq!(store.load(0x99, &meta(1)), None);
        assert_eq!(
            store.load_payload::<NetworkMetrics>(0x99, "stream", &meta(1)),
            Some(metrics(4))
        );
        assert_eq!(store.counters().quarantined, 0, "mismatch is a miss");
    }

    #[test]
    fn undecodable_payload_reads_as_a_miss() {
        let store = CacheStore::open(scratch_root("badpayload"), None);
        store.store_payload(0x55, "metrics", &meta(1), &42u64);
        assert_eq!(store.load(0x55, &meta(1)), None);
        assert_eq!(store.counters().quarantined, 0);
        // The subsequent store heals the slot.
        store.store(0x55, &meta(1), &metrics(6));
        assert_eq!(store.load(0x55, &meta(1)), Some(metrics(6)));
    }

    /// Rewrites the entry file for `key` through `edit` on its tree.
    fn edit_entry(store: &CacheStore, key: u64, edit: impl FnOnce(&mut Vec<(String, Value)>)) {
        let path = store.entry_path(key);
        let mut tree = serde::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Value::Obj(pairs) = &mut tree else {
            panic!("entry is an object")
        };
        edit(pairs);
        std::fs::write(&path, tree.render()).unwrap();
    }

    #[test]
    fn entry_with_the_payload_first_still_hits() {
        let store = CacheStore::open(scratch_root("payloadfirst"), None);
        store.store(0x66, &meta(1), &metrics(8));
        edit_entry(&store, 0x66, |pairs| {
            let payload = pairs.iter().position(|(k, _)| k == "payload").unwrap();
            let pair = pairs.remove(payload);
            pairs.insert(0, pair);
        });
        assert_eq!(store.load(0x66, &meta(1)), Some(metrics(8)));
        assert_eq!(store.counters().quarantined, 0);
    }

    #[test]
    fn mismatched_accel_key_is_a_plain_miss() {
        let store = CacheStore::open(scratch_root("accelkey"), None);
        store.store(0x77, &meta(1), &metrics(2));
        edit_entry(&store, 0x77, |pairs| {
            let accel_key = pairs.iter_mut().find(|(k, _)| k == "accel_key").unwrap();
            accel_key.1 = Value::U64(43);
        });
        assert_eq!(store.load(0x77, &meta(1)), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 0));
        assert!(
            store.entry_path(0x77).exists(),
            "a mismatch is left in place"
        );
    }

    #[test]
    fn entry_truncated_mid_payload_is_quarantined_once() {
        let store = CacheStore::open(scratch_root("truncated"), None);
        let mut m = metrics(5);
        m.layers = vec![("conv1".into(), RunMetrics::default()); 8];
        store.store(0x88, &meta(1), &m);
        let path = store.entry_path(0x88);
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = text.find("\"payload\"").unwrap();
        std::fs::write(&path, &text[..payload + (text.len() - payload) / 2]).unwrap();

        assert_eq!(store.load(0x88, &meta(1)), None);
        assert!(path.with_extension("json.bad").exists());
        assert!(!path.exists());
        // The slot is empty now: later loads are plain misses.
        assert_eq!(store.load(0x88, &meta(1)), None);
        let c = store.counters();
        assert_eq!((c.misses, c.quarantined), (2, 1));
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size("64k"), Some(64 << 10));
        assert_eq!(parse_byte_size("64KB"), Some(64 << 10));
        assert_eq!(parse_byte_size("3m"), Some(3 << 20));
        assert_eq!(parse_byte_size("2G"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 8 k "), Some(8 << 10));
        assert_eq!(parse_byte_size("x"), None);
        assert_eq!(parse_byte_size(""), None);
    }
}
