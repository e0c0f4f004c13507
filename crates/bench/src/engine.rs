//! The parallel, cached suite engine.
//!
//! Every harness binary used to call an ad-hoc serial `run_suite()`; they
//! now share this engine, which fans the 11-workload × 4-accelerator job
//! matrix out over a scoped worker pool and memoizes finished
//! [`NetworkMetrics`] in a content-addressed on-disk cache:
//!
//! - **Parallelism**: jobs are independent `(workload, accelerator)`
//!   pairs pulled from a shared counter by `--threads` /
//!   `ISOS_THREADS` worker threads (default: available parallelism).
//!   Results are assembled by job index, so output is bit-identical to a
//!   serial run regardless of completion order.
//! - **Caching**: each job's metrics land in the sharded, LRU-bounded
//!   [`CacheStore`] under `results/cache/`,
//!   keyed by a stable FNV-1a hash of the accelerator's
//!   [`cache_key`](Accelerator::cache_key), the workload id, the seed,
//!   and [`SCHEMA_VERSION`]. Entries self-describe those key fields and
//!   are revalidated on load; corrupt or stale files are quarantined
//!   and recomputed. Disable with `--no-cache` / `ISOS_NO_CACHE`,
//!   relocate with `ISOS_CACHE_DIR`, bound with `--cache-bytes` /
//!   `ISOS_CACHE_BYTES`.
//! - **Single-flight dedup**: concurrent identical jobs (same
//!   accelerator config, workload, and seed) cost exactly one
//!   simulation — the first claimant computes, every other racer waits
//!   on the in-flight slot and receives the same metrics, recorded as
//!   `deduped` rather than recomputed.
//! - **One result path**: every untraced row, a single-inference job
//!   here or a stream row from [`crate::stream`], is produced by one
//!   private method, `run_row`: recall, claim, re-check under
//!   leadership, compute, store, publish. The lifetime counters count
//!   both kinds.
//! - **Accounting**: per-job wall time plus hit/miss/dedup counters,
//!   printed as a one-line summary on stderr after each run.
//!
//! # Examples
//!
//! ```no_run
//! use isosceles_bench::engine::{EngineOptions, SuiteEngine};
//! use isosceles_bench::suite::SEED;
//! let opts = EngineOptions::from_env().expect("valid ISOS_* variables");
//! let run = SuiteEngine::new(opts).run_suite(SEED);
//! assert_eq!(run.rows.len(), 11);
//! eprintln!("{}", run.stats.summary());
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Instant;

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_nn::models::{paper_suite, Workload};
use isos_sim::metrics::NetworkMetrics;
use isosceles::accel::{fnv1a, Accelerator, FNV_OFFSET};
use isosceles::IsoscelesConfig;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cache::{parse_byte_size, CacheStore, EntryMeta};
use crate::cli::{self, Args};
use crate::suite::SuiteRow;

/// Version of the cache entry layout. Bump on any change to
/// [`NetworkMetrics`] serialization or to the key derivation; old entries
/// then read as stale and are recomputed.
///
/// v2: `NetworkMetrics` gained the per-layer breakdown (`layers`).
/// v3: entries gained the `kind` discriminant and `payload` envelope so
/// streaming rows (`StreamMetrics`) share the store with
/// single-inference rows.
pub const SCHEMA_VERSION: u32 = 3;

/// Owned workload identifier (`"R96"`, `"M75"`, ...).
///
/// Replaces the `&'static str` ids threaded through earlier suite code so
/// rows (and cache entries) can be serialized and deserialized without
/// leaking strings.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkloadId(String);

impl WorkloadId {
    /// Creates an id from any string-ish value.
    pub fn new(id: impl Into<String>) -> Self {
        Self(id.into())
    }

    /// The id as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runtime options for the engine, resolved from CLI flags and
/// environment variables.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Worker threads (>= 1).
    pub threads: usize,
    /// Whether the on-disk result cache is consulted and written.
    pub use_cache: bool,
    /// Cache directory (default `results/cache`).
    pub cache_dir: PathBuf,
    /// Total byte budget for the on-disk cache (`None` = unbounded).
    pub cache_bytes: Option<u64>,
    /// Suppress the end-of-run summary line on stderr.
    pub quiet: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            use_cache: true,
            cache_dir: PathBuf::from("results/cache"),
            cache_bytes: None,
            quiet: false,
        }
    }
}

/// Available parallelism, falling back to 1 when undetectable.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl EngineOptions {
    /// Resolves options from environment variables; command lines
    /// apply their engine flags on top with
    /// [`parse_flag`](Self::parse_flag), and flags win:
    ///
    /// - `ISOS_THREADS` (`--threads`), else available parallelism;
    /// - `ISOS_NO_CACHE` (`--no-cache`), any value but `0` or empty;
    /// - `ISOS_CACHE_DIR` overrides the `results/cache` location;
    /// - `ISOS_CACHE_BYTES` (`--cache-bytes`) bounds the store
    ///   (unbounded when unset).
    ///
    /// # Errors
    ///
    /// `ISOS_THREADS` or `ISOS_CACHE_BYTES` holds a value its flag
    /// rejects; the error names the variable.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`from_env`](Self::from_env) over the variables `var` returns.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let var = |name| var(name).filter(|v| !v.is_empty());
        if let Some(v) = var("ISOS_THREADS") {
            opts.threads = parse_threads("ISOS_THREADS", &v)?;
        }
        if var("ISOS_NO_CACHE").is_some_and(|v| v != "0") {
            opts.use_cache = false;
        }
        if let Some(dir) = var("ISOS_CACHE_DIR") {
            opts.cache_dir = PathBuf::from(dir);
        }
        if let Some(v) = var("ISOS_CACHE_BYTES") {
            opts.cache_bytes = Some(parse_cache_bytes("ISOS_CACHE_BYTES", &v)?);
        }
        Ok(opts)
    }

    /// Applies `flag` if it is an engine flag (`--threads N`,
    /// `--no-cache` or `--cache-bytes N[k|m|g]`), taking its value from
    /// `args`. Returns `Ok(false)`, consuming nothing, for any other flag.
    ///
    /// # Errors
    ///
    /// A missing value, a non-number, or zero.
    pub fn parse_flag(&mut self, args: &mut Args, flag: &str) -> Result<bool, String> {
        match flag {
            "--no-cache" => self.use_cache = false,
            "--threads" => self.threads = parse_threads(flag, &args.value()?)?,
            "--cache-bytes" => self.cache_bytes = Some(parse_cache_bytes(flag, &args.value()?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A `--threads`/`ISOS_THREADS` value named `name`: an integer >= 1.
fn parse_threads(name: &str, text: &str) -> Result<usize, String> {
    cli::parse(name, text, "an integer >= 1", |&n| n >= 1)
}

/// A `--cache-bytes`/`ISOS_CACHE_BYTES` value named `name`: a size >= 1.
fn parse_cache_bytes(name: &str, text: &str) -> Result<u64, String> {
    let n = parse_byte_size(text).filter(|&n| n >= 1);
    cli::checked(name, text, "a size >= 1 such as 64k", n)
}

/// Timing and cache accounting for one finished job.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRecord {
    /// Accelerator model name.
    pub accel: String,
    /// Workload the job simulated.
    pub workload: WorkloadId,
    /// Wall time of this job in milliseconds (near zero on a cache hit).
    pub millis: f64,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Whether the result came from another in-flight identical job
    /// (single-flight dedup) rather than the cache or a fresh simulation.
    pub deduped: bool,
}

/// Cache hit/miss counters, either for one run ([`EngineStats::cache`])
/// or accumulated over an engine's lifetime
/// ([`SuiteEngine::lifetime_cache`]).
///
/// Search drivers (the `dse` binary) use the lifetime view to assert
/// that repeated evaluations of the same design points are served from
/// the cache instead of re-simulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Jobs served from the on-disk cache.
    pub hits: usize,
    /// Jobs that had to simulate.
    pub misses: usize,
}

impl CacheStats {
    /// Total jobs accounted for.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hits / {} misses", self.hits, self.misses)
    }
}

/// Aggregated accounting for one engine run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Jobs served from the cache.
    pub hits: usize,
    /// Jobs simulated.
    pub misses: usize,
    /// Jobs served by waiting on an identical in-flight job.
    pub deduped: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time in milliseconds.
    pub wall_millis: f64,
    /// Per-job records, in job order (workload-major, accelerator-minor).
    pub jobs: Vec<JobRecord>,
}

impl EngineStats {
    /// Total job count.
    pub fn jobs_total(&self) -> usize {
        self.hits + self.misses + self.deduped
    }

    /// This run's cache counters as a standalone struct.
    pub fn cache(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// The one-line human summary the harness binaries print.
    pub fn summary(&self) -> String {
        let slowest = self
            .jobs
            .iter()
            .max_by(|a, b| a.millis.total_cmp(&b.millis));
        let tail = match slowest {
            Some(j) => format!(", slowest {}/{} {:.0} ms", j.accel, j.workload, j.millis),
            None => String::new(),
        };
        let deduped = if self.deduped > 0 {
            format!(", {} deduped", self.deduped)
        } else {
            String::new()
        };
        format!(
            "suite engine: {} jobs ({} cache hits, {} misses{deduped}) on {} thread{} in {:.0} ms{}",
            self.jobs_total(),
            self.hits,
            self.misses,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall_millis,
            tail
        )
    }
}

/// Result of a full-suite engine run.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// One row per workload, in paper figure order.
    pub rows: Vec<SuiteRow>,
    /// Timing and cache accounting.
    pub stats: EngineStats,
}

/// Content hash addressing one `(accelerator, workload, seed)` job under
/// the current schema version.
pub fn job_key(accel: &dyn Accelerator, workload: &WorkloadId, seed: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET, &SCHEMA_VERSION.to_le_bytes());
    let h = fnv1a(h, &accel.cache_key().to_le_bytes());
    let h = fnv1a(h, workload.as_str().as_bytes());
    fnv1a(h, &seed.to_le_bytes())
}

/// Runs `job(i)` for every `i` in `0..n` on up to `threads` scoped
/// workers (clamped to `1..=n`), each pulling the next index off a shared
/// counter, and returns the results in index order — so the output is
/// independent of the worker count and of completion order.
///
/// # Panics
///
/// Panics if any `job` call panics.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                slots.lock()[i] = Some(out);
            });
        }
    })
    .expect("fan-out worker panicked");
    slots
        .into_inner()
        .into_iter()
        .map(|s| s.expect("every index ran"))
        .collect()
}

/// Cumulative job counters shared by an engine and all its clones.
#[derive(Debug, Default)]
struct LifetimeCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    deduped: AtomicUsize,
    computes: AtomicUsize,
}

/// State of one in-flight single-flight slot.
#[derive(Debug)]
enum SlotState {
    /// The leader is computing.
    Running,
    /// The leader finished; waiters clone this row. It is type-erased
    /// so one table serves every row kind: a key names one kind only,
    /// since [`job_key`] and [`stream_key`](crate::stream::stream_key)
    /// never collide.
    Done(Box<dyn Any + Send>),
    /// The leader panicked; waiters must not hang.
    Poisoned,
}

/// One in-flight job that waiters can subscribe to.
#[derive(Debug)]
struct InflightSlot {
    state: std::sync::Mutex<SlotState>,
    ready: Condvar,
}

impl InflightSlot {
    fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(SlotState::Running),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the leader resolves the slot.
    ///
    /// # Panics
    ///
    /// Panics if the leader panicked; the panic then propagates through
    /// the waiter exactly as the leader's would have.
    fn wait<T: Clone + 'static>(&self) -> T {
        let mut state = self.state.lock().expect("inflight slot poisoned");
        loop {
            match &*state {
                SlotState::Running => {
                    state = self.ready.wait(state).expect("inflight slot poisoned");
                }
                SlotState::Done(row) => {
                    return row
                        .downcast_ref::<T>()
                        .expect("one key, one row kind")
                        .clone()
                }
                SlotState::Poisoned => panic!("single-flight leader panicked"),
            }
        }
    }

    fn resolve(&self, state: SlotState) {
        *self.state.lock().expect("inflight slot poisoned") = state;
        self.ready.notify_all();
    }
}

/// The process-local single-flight table: at most one computation per
/// row key is in flight at a time; every other claimant of the same key
/// subscribes to the leader's slot.
#[derive(Debug, Default)]
struct InflightTable {
    slots: std::sync::Mutex<HashMap<u64, Arc<InflightSlot>>>,
}

/// Outcome of claiming a key in the [`InflightTable`].
enum Claim<'a> {
    /// This caller computes; completing (or unwinding) releases the key.
    Leader(LeaderToken<'a>),
    /// An identical job is already in flight; wait on its slot.
    Waiter(Arc<InflightSlot>),
}

/// RAII leadership of one in-flight key. Dropping the token without
/// [`complete`](Self::complete) (i.e. a panicking leader) poisons the
/// slot so waiters unwind too instead of hanging.
struct LeaderToken<'a> {
    table: &'a InflightTable,
    key: u64,
    slot: Arc<InflightSlot>,
    completed: bool,
}

impl InflightTable {
    fn claim(&self, key: u64) -> Claim<'_> {
        let mut slots = self.slots.lock().expect("inflight table poisoned");
        if let Some(slot) = slots.get(&key) {
            return Claim::Waiter(Arc::clone(slot));
        }
        let slot = Arc::new(InflightSlot::new());
        slots.insert(key, Arc::clone(&slot));
        Claim::Leader(LeaderToken {
            table: self,
            key,
            slot,
            completed: false,
        })
    }

    fn len(&self) -> usize {
        self.slots.lock().expect("inflight table poisoned").len()
    }

    fn release(&self, key: u64) {
        self.slots
            .lock()
            .expect("inflight table poisoned")
            .remove(&key);
    }
}

impl LeaderToken<'_> {
    /// Publishes the row to every waiter and releases the key.
    fn complete<T: Send + 'static>(mut self, row: T) {
        self.completed = true;
        self.slot.resolve(SlotState::Done(Box::new(row)));
        self.table.release(self.key);
    }
}

impl Drop for LeaderToken<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.slot.resolve(SlotState::Poisoned);
            self.table.release(self.key);
        }
    }
}

/// Engine state shared across clones: counters, the single-flight
/// table, and the lazily opened cache store.
#[derive(Debug, Default)]
struct EngineShared {
    lifetime: LifetimeCounters,
    inflight: InflightTable,
    store: OnceLock<Option<Arc<CacheStore>>>,
}

/// The parallel, cached suite driver. See the [module docs](self).
///
/// Cloning an engine shares its lifetime counters, its single-flight
/// table, and its cache store, so a driver can hand clones to helpers
/// and still read one cumulative [`lifetime_cache`](Self::lifetime_cache)
/// total — and concurrent identical jobs on any clone dedupe against
/// each other.
#[derive(Clone, Debug, Default)]
pub struct SuiteEngine {
    opts: EngineOptions,
    shared: Arc<EngineShared>,
}

impl SuiteEngine {
    /// Creates an engine with explicit options.
    pub fn new(opts: EngineOptions) -> Self {
        Self {
            opts,
            shared: Arc::default(),
        }
    }

    /// The resolved options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Cache counters accumulated over every row this engine and its
    /// clones produced, single-inference jobs and stream rows alike.
    /// Deduped rows count toward neither side.
    pub fn lifetime_cache(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.lifetime.hits.load(Ordering::Relaxed),
            misses: self.shared.lifetime.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of rows actually computed by this engine and its clones
    /// (one per simulated job or stream row) — the count that
    /// single-flight dedup and caching exist to minimize. `N` identical
    /// concurrent requests increment this once.
    pub fn lifetime_computes(&self) -> usize {
        self.shared.lifetime.computes.load(Ordering::Relaxed)
    }

    /// Rows served by subscribing to an identical in-flight row, over
    /// the engine's lifetime.
    pub fn lifetime_deduped(&self) -> usize {
        self.shared.lifetime.deduped.load(Ordering::Relaxed)
    }

    /// Number of jobs currently being simulated (single-flight slots in
    /// flight).
    pub fn inflight_len(&self) -> usize {
        self.shared.inflight.len()
    }

    /// The engine's persistent cache store, if caching is enabled.
    /// Opened lazily on first use; clones share the instance.
    pub fn cache_store(&self) -> Option<Arc<CacheStore>> {
        self.shared
            .store
            .get_or_init(|| {
                self.opts.use_cache.then(|| {
                    Arc::new(CacheStore::open(
                        self.opts.cache_dir.clone(),
                        self.opts.cache_bytes,
                    ))
                })
            })
            .clone()
    }

    /// Runs the paper's 11-CNN suite on all four accelerator models and
    /// assembles the standard [`SuiteRow`]s.
    pub fn run_suite(&self, seed: u64) -> SuiteRun {
        let workloads = paper_suite(seed);
        let isosceles = IsoscelesConfig::default();
        let single = IsoscelesSingleConfig::default();
        let sparten = SpartenConfig::default();
        let fused = FusedLayerConfig::default();
        let accels: [&dyn Accelerator; 4] = [&isosceles, &single, &sparten, &fused];

        let (mut grid, stats) = self.run_matrix(&workloads, &accels, seed);
        let rows = workloads
            .iter()
            .zip(grid.drain(..))
            .map(|(w, mut per_accel)| {
                // Reverse-order pops take the Vec apart without clones.
                let fused = per_accel.pop().expect("fused metrics");
                let sparten = per_accel.pop().expect("sparten metrics");
                let single = per_accel.pop().expect("single metrics");
                let isosceles = per_accel.pop().expect("isosceles metrics");
                SuiteRow {
                    id: WorkloadId::new(w.id),
                    isosceles,
                    single,
                    sparten,
                    fused,
                }
            })
            .collect();
        SuiteRun { rows, stats }
    }

    /// Runs an arbitrary `workloads` × `accels` job matrix and returns
    /// the metrics grid indexed `[workload][accelerator]` plus run stats.
    ///
    /// Jobs execute on a scoped worker pool; the grid is assembled by job
    /// index, so the output is independent of thread count and
    /// scheduling.
    pub fn run_matrix(
        &self,
        workloads: &[Workload],
        accels: &[&dyn Accelerator],
        seed: u64,
    ) -> (Vec<Vec<NetworkMetrics>>, EngineStats) {
        let started = Instant::now();
        let jobs: Vec<(usize, usize)> = (0..workloads.len())
            .flat_map(|w| (0..accels.len()).map(move |a| (w, a)))
            .collect();

        let threads = self.opts.threads.clamp(1, jobs.len().max(1));
        let done = fan_out(jobs.len(), threads, |i| {
            let (w, a) = jobs[i];
            self.run_job(&workloads[w], accels[a], seed)
        });

        let mut stats = EngineStats {
            threads,
            ..EngineStats::default()
        };
        let mut grid: Vec<Vec<NetworkMetrics>> = (0..workloads.len())
            .map(|_| Vec::with_capacity(accels.len()))
            .collect();
        for ((metrics, record), &(w, _)) in done.into_iter().zip(&jobs) {
            if record.cache_hit {
                stats.hits += 1;
            } else if record.deduped {
                stats.deduped += 1;
            } else {
                stats.misses += 1;
            }
            stats.jobs.push(record);
            grid[w].push(metrics);
        }
        stats.wall_millis = started.elapsed().as_secs_f64() * 1e3;
        if !self.opts.quiet {
            eprintln!("{}", stats.summary());
        }
        (grid, stats)
    }

    /// Runs (or recalls) one single-inference job through the cache and
    /// the single-flight table. This is the unit the `isos-serve`
    /// dispatcher schedules: concurrent identical calls on this engine
    /// (or its clones) cost exactly one simulation.
    pub fn run_job(
        &self,
        workload: &Workload,
        accel: &dyn Accelerator,
        seed: u64,
    ) -> (NetworkMetrics, JobRecord) {
        let id = WorkloadId::new(workload.id);
        let key = job_key(accel, &id, seed);
        let meta = EntryMeta {
            accel: accel.name().to_string(),
            accel_key: accel.cache_key(),
            workload: id,
            seed,
        };
        self.run_row(key, "metrics", meta, || {
            accel.simulate(&workload.network, seed)
        })
    }

    /// The one way an untraced row is produced: recall the `kind` row at
    /// `key`, else claim `key` (or wait for its leader), re-check the
    /// store under leadership (a previous leader may have stored the row
    /// since the miss), run `compute`, store the row and publish it.
    ///
    /// # Panics
    ///
    /// Panics if `compute` panics, in the leader and in every waiter.
    pub(crate) fn run_row<T>(
        &self,
        key: u64,
        kind: &str,
        meta: EntryMeta,
        compute: impl FnOnce() -> T,
    ) -> (T, JobRecord)
    where
        T: Serialize + Deserialize + Clone + Send + 'static,
    {
        let started = Instant::now();
        let lifetime = &self.shared.lifetime;
        let store = self.cache_store();
        let (row, cache_hit, deduped) = 'row: {
            if let Some(row) = store
                .as_ref()
                .and_then(|s| s.load_payload(key, kind, &meta))
            {
                lifetime.hits.fetch_add(1, Ordering::Relaxed);
                break 'row (row, true, false);
            }
            let token = match self.shared.inflight.claim(key) {
                Claim::Leader(token) => token,
                Claim::Waiter(slot) => {
                    let row = slot.wait();
                    lifetime.deduped.fetch_add(1, Ordering::Relaxed);
                    break 'row (row, false, true);
                }
            };
            // The load above counted the store miss; `lookup` does not.
            if let Some(row) = store.as_ref().and_then(|s| s.lookup(key, kind, &meta)) {
                token.complete(T::clone(&row));
                lifetime.hits.fetch_add(1, Ordering::Relaxed);
                break 'row (row, true, false);
            }
            let row = compute();
            lifetime.computes.fetch_add(1, Ordering::Relaxed);
            if let Some(store) = &store {
                store.store_payload(key, kind, &meta, &row);
            }
            token.complete(T::clone(&row));
            lifetime.misses.fetch_add(1, Ordering::Relaxed);
            (row, false, false)
        };
        let record = JobRecord {
            accel: meta.accel,
            workload: meta.workload,
            millis: started.elapsed().as_secs_f64() * 1e3,
            cache_hit,
            deduped,
        };
        (row, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SEED;
    use isos_nn::models::suite_workload;
    use std::sync::atomic::AtomicU32;

    /// Unique per-test cache dir under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("isos-engine-{}-{}-{}", std::process::id(), tag, n));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn quiet_engine(cache_dir: PathBuf, threads: usize, use_cache: bool) -> SuiteEngine {
        SuiteEngine::new(EngineOptions {
            threads,
            use_cache,
            cache_dir,
            quiet: true,
            ..EngineOptions::default()
        })
    }

    /// Small matrix (1 workload × 2 models) that keeps tests fast.
    fn small_inputs() -> (Vec<Workload>, SpartenConfig, FusedLayerConfig) {
        (
            vec![suite_workload("G58", SEED)],
            SpartenConfig::default(),
            FusedLayerConfig::default(),
        )
    }

    #[test]
    fn second_run_hits_cache_with_identical_metrics() {
        let dir = scratch_dir("hit");
        let (workloads, sparten, fused) = small_inputs();
        let accels: [&dyn Accelerator; 2] = [&sparten, &fused];

        let eng = quiet_engine(dir.clone(), 1, true);
        let (cold, s1) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s1.hits, s1.misses), (0, 2));

        let (warm, s2) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s2.hits, s2.misses), (2, 0));
        assert_eq!(warm, cold);
    }

    #[test]
    fn store_counters_agree_with_the_engine() {
        // A leader miss loads the store twice (before its claim and as
        // its re-check) but must count one store miss, as the engine does.
        let dir = scratch_dir("counters");
        let (workloads, sparten, fused) = small_inputs();
        let accels: [&dyn Accelerator; 2] = [&sparten, &fused];
        let eng = quiet_engine(dir, 1, true);

        let (_, cold) = eng.run_matrix(&workloads, &accels, SEED);
        let store = eng.cache_store().unwrap();
        assert_eq!(cold.misses, 2);
        assert_eq!(store.counters().misses, 2);

        let (_, warm) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!(warm.hits, 2);
        assert_eq!(store.counters().hits, 2);
        assert_eq!(store.counters().misses, 2);
    }

    #[test]
    fn cache_hit_short_circuits_simulation() {
        // Plant a doctored entry: if the engine *returns* it, the job was
        // served from disk rather than re-simulated.
        let dir = scratch_dir("shortcircuit");
        let (workloads, sparten, _) = small_inputs();
        let accels: [&dyn Accelerator; 1] = [&sparten];
        let eng = quiet_engine(dir.clone(), 1, true);

        let (real, _) = eng.run_matrix(&workloads, &accels, SEED);
        let store = eng.cache_store().unwrap();
        let key = job_key(&sparten, &WorkloadId::new("G58"), SEED);
        let mut doctored = real[0][0].clone();
        doctored.total.cycles += 12345;
        store.store(
            key,
            &EntryMeta {
                accel: sparten.name().to_string(),
                accel_key: sparten.cache_key(),
                workload: WorkloadId::new("G58"),
                seed: SEED,
            },
            &doctored,
        );

        let (again, stats) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(again[0][0].total.cycles, real[0][0].total.cycles + 12345);
    }

    #[test]
    fn config_seed_and_schema_changes_invalidate() {
        let dir = scratch_dir("invalidate");
        let (workloads, sparten, _) = small_inputs();
        let accels: [&dyn Accelerator; 1] = [&sparten];
        let eng = quiet_engine(dir.clone(), 1, true);
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!(s.misses, 1);

        // Different seed: different key, so a miss.
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED + 1);
        assert_eq!((s.hits, s.misses), (0, 1));

        // Different config: different key, so a miss.
        let tweaked = SpartenConfig {
            compute_efficiency: 0.5,
            ..Default::default()
        };
        let accels2: [&dyn Accelerator; 1] = [&tweaked];
        let (_, s) = eng.run_matrix(&workloads, &accels2, SEED);
        assert_eq!((s.hits, s.misses), (0, 1));

        // Stale schema version in an otherwise-matching file: the key
        // matches (same path) but validation rejects it.
        let path =
            eng.cache_store()
                .unwrap()
                .entry_path(job_key(&sparten, &WorkloadId::new("G58"), SEED));
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = text.replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
            1,
        );
        assert_ne!(stale, text, "schema field not found in cache entry");
        std::fs::write(&path, stale).unwrap();
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn old_schema_entry_is_quarantined_and_recomputed_once() {
        // Satellite: entries written under a previous SCHEMA_VERSION
        // (e.g. v2 rows without the kind/payload envelope) must be
        // quarantined on first touch and recomputed exactly once, after
        // which the slot is healthy again.
        let dir = scratch_dir("oldschema");
        let (workloads, sparten, _) = small_inputs();
        let accels: [&dyn Accelerator; 1] = [&sparten];
        let eng = quiet_engine(dir.clone(), 1, true);
        let (clean, _) = eng.run_matrix(&workloads, &accels, SEED);

        let path =
            eng.cache_store()
                .unwrap()
                .entry_path(job_key(&sparten, &WorkloadId::new("G58"), SEED));
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION - 1),
            1,
        );
        assert_ne!(old, text, "schema field not found in cache entry");
        std::fs::write(&path, old).unwrap();

        let computes_before = eng.lifetime_computes();
        let (recomputed, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(recomputed, clean, "recompute reproduces the metrics");
        assert_eq!(eng.lifetime_computes(), computes_before + 1);
        assert!(
            path.with_extension("json.bad").exists(),
            "old-schema entry preserved as *.bad"
        );
        assert_eq!(eng.cache_store().unwrap().counters().quarantined, 1);

        // Recomputed once: the next run is a plain hit, no re-quarantine
        // and no further simulation.
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (1, 0));
        assert_eq!(eng.lifetime_computes(), computes_before + 1);
        assert_eq!(eng.cache_store().unwrap().counters().quarantined, 1);
    }

    #[test]
    fn corrupt_cache_file_falls_back_to_recompute() {
        let dir = scratch_dir("corrupt");
        let (workloads, sparten, _) = small_inputs();
        let accels: [&dyn Accelerator; 1] = [&sparten];
        let eng = quiet_engine(dir.clone(), 1, true);
        let (clean, _) = eng.run_matrix(&workloads, &accels, SEED);

        let path =
            eng.cache_store()
                .unwrap()
                .entry_path(job_key(&sparten, &WorkloadId::new("G58"), SEED));
        std::fs::write(&path, "{ not json !!").unwrap();

        let (recomputed, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(recomputed, clean);
        // The corrupt file was quarantined, not silently clobbered, and
        // the slot healed with a valid entry.
        assert!(path.with_extension("json.bad").exists());
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (1, 0));
        assert_eq!(eng.cache_store().unwrap().counters().quarantined, 1);
    }

    #[test]
    fn racing_identical_cold_jobs_simulate_exactly_once() {
        // Satellite: two engine clones race the same cold job through
        // run_job; single-flight must guarantee one compute, and both
        // callers must observe bit-identical metrics.
        let dir = scratch_dir("singleflight");
        let (workloads, sparten, _) = small_inputs();
        let eng = quiet_engine(dir, 2, true);

        let barrier = std::sync::Barrier::new(2);
        let results: Vec<(NetworkMetrics, JobRecord)> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let eng = eng.clone();
                    let barrier = &barrier;
                    let w = &workloads[0];
                    let sparten = &sparten;
                    s.spawn(move |_| {
                        barrier.wait();
                        eng.run_job(w, sparten, SEED)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();

        assert_eq!(eng.lifetime_computes(), 1, "exactly one simulation ran");
        assert_eq!(results[0].0, results[1].0, "both callers see one result");
        let total = eng.lifetime_cache().total() + eng.lifetime_deduped();
        assert_eq!(total, 2, "every job accounted for");
        assert_eq!(eng.inflight_len(), 0, "no slot leaked");

        // A later identical request is a plain cache hit.
        let (_, rec) = eng.run_job(&workloads[0], &sparten, SEED);
        assert!(rec.cache_hit && !rec.deduped);
    }

    /// A two-request G58 stream scenario and the meta its row carries.
    fn small_stream() -> (IsoscelesConfig, isos_stream::StreamConfig) {
        let cfg = isos_stream::StreamConfig {
            requests: 2,
            batch: 2,
            ..isos_stream::StreamConfig::default()
        };
        (IsoscelesConfig::default(), cfg)
    }

    #[test]
    fn racing_identical_cold_streams_compute_once() {
        let eng = quiet_engine(scratch_dir("streamflight"), 1, true);
        let (accel, cfg) = small_stream();
        let barrier = std::sync::Barrier::new(4);
        let rows: Vec<isos_stream::StreamMetrics> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|_| {
                        barrier.wait();
                        crate::stream::run_stream_cached(&eng, &accel, "G58", SEED, &cfg)
                            .expect("a valid scenario")
                            .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();

        assert_eq!(eng.lifetime_computes(), 1, "one stream computed");
        let cache = eng.lifetime_cache();
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.hits + eng.lifetime_deduped(), 3, "the rest recalled");
        assert!(rows.iter().all(|row| *row == rows[0]), "one row for all");
        assert_eq!(eng.inflight_len(), 0, "no slot leaked");
    }

    #[test]
    fn a_panicking_leader_poisons_its_stream_waiters() {
        let eng = quiet_engine(scratch_dir("streampoison"), 1, false);
        let (accel, cfg) = small_stream();
        let id = WorkloadId::new("G58");
        let key = crate::stream::stream_key(&accel, &id, &cfg, SEED);
        let meta = EntryMeta {
            accel: accel.name().to_string(),
            accel_key: accel.cache_key(),
            workload: id,
            seed: SEED,
        };
        // Holders of the key's slot: the table, the leader and waiters.
        let holders = || {
            let slots = eng.shared.inflight.slots.lock().unwrap();
            slots.get(&key).map_or(0, Arc::strong_count)
        };
        let claimed = std::sync::Barrier::new(2);
        crossbeam::thread::scope(|s| {
            let leader = s.spawn(|_| {
                eng.run_row::<isos_stream::StreamMetrics>(
                    key,
                    crate::stream::STREAM_KIND,
                    meta,
                    || {
                        claimed.wait();
                        while holders() < 3 {
                            std::thread::yield_now();
                        }
                        panic!("compute failed");
                    },
                )
            });
            claimed.wait();
            let waiter = s.spawn(|_| {
                crate::stream::run_stream_cached(&eng, &accel, "G58", SEED, &cfg)
                    .map(|(row, _)| row)
            });
            assert!(leader.join().is_err(), "the leader panics");
            let err = waiter.join().expect_err("the waiter panics, not hangs");
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"single-flight leader panicked")
            );
        })
        .unwrap();
        assert_eq!(eng.lifetime_computes(), 0);
        assert_eq!(eng.inflight_len(), 0, "the poisoned slot is released");
    }

    #[test]
    fn run_matrix_dedupes_duplicate_jobs() {
        // The CLI path: a matrix listing the same (workload, accel) twice
        // must not simulate twice even when both jobs run cold.
        let dir = scratch_dir("matrixdedup");
        let (mut workloads, sparten, _) = small_inputs();
        workloads.push(workloads[0].clone());
        let accels: [&dyn Accelerator; 1] = [&sparten];

        let eng = quiet_engine(dir, 2, true);
        let (grid, stats) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!(eng.lifetime_computes(), 1, "duplicate job deduped");
        assert_eq!(stats.jobs_total(), 2);
        assert_eq!(grid[0], grid[1], "duplicates got identical metrics");
    }

    #[test]
    fn no_cache_mode_writes_nothing() {
        let dir = scratch_dir("nocache");
        let (workloads, sparten, _) = small_inputs();
        let accels: [&dyn Accelerator; 1] = [&sparten];
        let eng = quiet_engine(dir.clone(), 2, false);
        let (_, s) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!((s.hits, s.misses), (0, 1));
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 0);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let dir = scratch_dir("determinism");
        let (workloads, sparten, fused) = small_inputs();
        let single = IsoscelesSingleConfig::default();
        let accels: [&dyn Accelerator; 3] = [&single, &sparten, &fused];

        // Caches off so both runs actually simulate.
        let serial = quiet_engine(dir.clone(), 1, false);
        let parallel = quiet_engine(dir, 4, false);
        let (a, s1) = serial.run_matrix(&workloads, &accels, SEED);
        let (b, s2) = parallel.run_matrix(&workloads, &accels, SEED);
        assert_eq!(s1.threads, 1);
        assert_eq!(s2.threads, 3); // 4 requested, clamped to the job count
        assert_eq!(
            serde::json::to_string(&a),
            serde::json::to_string(&b),
            "parallel run diverged from serial"
        );
    }

    #[test]
    fn job_keys_are_unique_across_the_standard_matrix() {
        let isosceles = IsoscelesConfig::default();
        let single = IsoscelesSingleConfig::default();
        let sparten = SpartenConfig::default();
        let fused = FusedLayerConfig::default();
        let accels: [&dyn Accelerator; 4] = [&isosceles, &single, &sparten, &fused];
        let ids = [
            "R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89",
        ];
        let mut keys: Vec<u64> = Vec::new();
        for a in accels {
            for id in ids {
                keys.push(job_key(a, &WorkloadId::new(id), SEED));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 44, "cache key collision in standard matrix");
    }

    #[test]
    fn cache_keys_are_pinned() {
        // Every user's on-disk cache is addressed by these keys. A change
        // to the shared FNV-1a fold, a config's serialized form or the key
        // layout orphans every cache, so it must be deliberate: bump
        // SCHEMA_VERSION and recapture these literals (taken at version 3)
        // in the same commit.
        let cfg = IsoscelesConfig::default();
        let id = WorkloadId::new("R81");
        let stream = isos_stream::StreamConfig::default();
        assert_eq!(
            isosceles::accel::stable_key("isosceles", &cfg),
            0xd987_d2a7_fec4_ef5b
        );
        assert_eq!(cfg.cache_key(), 0xd987_d2a7_fec4_ef5b);
        assert_eq!(job_key(&cfg, &id, SEED), 0xa450_79c7_d0e8_b236);
        assert_eq!(
            crate::stream::stream_key(&cfg, &id, &stream, SEED),
            0x2410_9c68_fecc_596e
        );
    }

    #[test]
    fn stream_entry_is_pinned() {
        // One fixed stream scenario: its key and the bytes of the entry
        // file the engine writes for it. However a stream row reaches
        // the store, the file it leaves must not move a byte.
        let eng = quiet_engine(scratch_dir("streampin"), 2, true);
        let accel = IsoscelesConfig::default();
        let cfg = isos_stream::StreamConfig {
            requests: 4,
            batch: 2,
            ..isos_stream::StreamConfig::default()
        };
        let key = crate::stream::stream_key(&accel, &WorkloadId::new("G58"), &cfg, 42);
        assert_eq!(key, 0x044e_4a8a_af74_7d16);
        let _ = crate::stream::run_stream_cached(&eng, &accel, "G58", 42, &cfg);
        let entry = std::fs::read(eng.cache_store().unwrap().entry_path(key)).unwrap();
        assert_eq!(fnv1a(FNV_OFFSET, &entry), 0x923e_a356_be50_d6f3);
    }

    #[test]
    fn run_suite_rows_follow_paper_figure_order() {
        let dir = scratch_dir("suiteorder");
        let eng = quiet_engine(dir, 8, true);
        let run = eng.run_suite(SEED);
        let ids: Vec<&str> = run.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            ["R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89"],
            "suite rows must match the paper's figure order"
        );
        // Every row carries the full per-layer breakdown for all models.
        for r in &run.rows {
            for (accel, m) in r.models() {
                assert!(!m.layers.is_empty(), "{}/{accel}: no layers", r.id);
            }
        }
    }

    #[test]
    fn lifetime_cache_accumulates_across_runs_and_clones() {
        let dir = scratch_dir("lifetime");
        let (workloads, sparten, fused) = small_inputs();
        let accels: [&dyn Accelerator; 2] = [&sparten, &fused];

        let eng = quiet_engine(dir, 1, true);
        assert_eq!(eng.lifetime_cache(), CacheStats::default());

        let (_, s1) = eng.run_matrix(&workloads, &accels, SEED);
        assert_eq!(s1.cache(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(eng.lifetime_cache(), s1.cache());

        // A clone shares the counters, and its runs hit the same cache.
        let clone = eng.clone();
        let (_, s2) = clone.run_matrix(&workloads, &accels, SEED);
        assert_eq!(s2.cache(), CacheStats { hits: 2, misses: 0 });
        let total = eng.lifetime_cache();
        assert_eq!(total, CacheStats { hits: 2, misses: 2 });
        assert_eq!(total, clone.lifetime_cache());
        assert_eq!(total.total(), 4);
    }

    #[test]
    fn cache_stats_total_and_display() {
        let a = CacheStats { hits: 3, misses: 1 };
        assert_eq!(a.total(), 4);
        assert_eq!(a.to_string(), "3 hits / 1 misses");
    }

    #[test]
    fn options_default_to_available_parallelism_and_cache_on() {
        let opts = EngineOptions::default();
        assert!(opts.threads >= 1);
        assert!(opts.use_cache);
        assert_eq!(opts.cache_dir, PathBuf::from("results/cache"));
    }

    /// Runs `args` through `parse_flag` under the shared parser;
    /// returns the options and the arguments it passed through, or its
    /// first error.
    fn parse(args: &[&str]) -> (EngineOptions, Result<Vec<String>, String>) {
        let mut opts = EngineOptions {
            threads: 3,
            ..EngineOptions::default()
        };
        let mut other = Vec::new();
        let result = Args::new("usage: test", args.iter().copied()).try_each(|args, flag| {
            if !opts.parse_flag(args, flag)? {
                other.push(flag.to_string());
            }
            Ok(true)
        });
        (opts, result.map(|()| other))
    }

    #[test]
    fn parse_flag_accepts_every_form_and_passes_other_args_through() {
        let args = [
            "--threads",
            "4",
            "--net",
            "R96",
            "--no-cache",
            "--cache-bytes",
            "64k",
            "fig14",
        ];
        let (opts, rest) = parse(&args);
        assert_eq!(rest.unwrap(), ["--net", "R96", "fig14"]);
        assert_eq!((opts.threads, opts.use_cache), (4, false));
        assert_eq!(opts.cache_bytes, Some(64 << 10));

        let (opts, rest) = parse(&["--threads=2", "--cache-bytes=3m"]);
        assert_eq!(rest.unwrap(), Vec::<String>::new());
        assert_eq!((opts.threads, opts.use_cache), (2, true));
        assert_eq!(opts.cache_bytes, Some(3 << 20));
    }

    #[test]
    fn parse_flag_rejects_bad_values() {
        for bad in [
            "--threads 0",
            "--threads abc",
            "--threads=0",
            "--threads",
            "--cache-bytes 0",
            "--cache-bytes 64x",
            "--cache-bytes=",
            "--no-cache=1",
        ] {
            let (opts, rest) = parse(&bad.split(' ').collect::<Vec<_>>());
            assert!(rest.is_err(), "{bad} accepted");
            assert_eq!((opts.threads, opts.cache_bytes), (3, None), "{bad}");
        }
    }

    #[test]
    fn env_vars_get_their_flags_validation() {
        let from = |vars: &[(&str, &str)]| {
            let vars: Vec<(String, String)> =
                vars.iter().map(|&(k, v)| (k.into(), v.into())).collect();
            EngineOptions::from_vars(|name| {
                vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
            })
        };
        for (name, value) in [
            ("ISOS_THREADS", "abc"),
            ("ISOS_THREADS", "0"),
            ("ISOS_CACHE_BYTES", "64x"),
            ("ISOS_CACHE_BYTES", "0"),
        ] {
            let err = from(&[(name, value)]).expect_err(value);
            assert!(err.starts_with(&format!("{name} needs ")), "{err}");
        }

        let opts = from(&[
            ("ISOS_THREADS", "5"),
            ("ISOS_CACHE_BYTES", "2m"),
            ("ISOS_NO_CACHE", "1"),
            ("ISOS_CACHE_DIR", "/x"),
        ])
        .unwrap();
        assert_eq!((opts.threads, opts.cache_bytes), (5, Some(2 << 20)));
        assert!(!opts.use_cache);
        assert_eq!(opts.cache_dir, PathBuf::from("/x"));
        // Empty variables and `ISOS_NO_CACHE=0` leave the defaults.
        let opts = from(&[("ISOS_THREADS", ""), ("ISOS_NO_CACHE", "0")]).unwrap();
        assert_eq!(opts.threads, default_threads());
        assert!(opts.use_cache);
    }

    #[test]
    fn summary_line_reports_counts() {
        let stats = EngineStats {
            hits: 40,
            misses: 4,
            deduped: 0,
            threads: 8,
            wall_millis: 1234.5,
            jobs: vec![JobRecord {
                accel: "isosceles".into(),
                workload: WorkloadId::new("R99"),
                millis: 600.0,
                cache_hit: false,
                deduped: false,
            }],
        };
        let line = stats.summary();
        assert!(line.contains("44 jobs"));
        assert!(line.contains("40 cache hits"));
        assert!(line.contains("4 misses"));
        assert!(!line.contains("deduped"), "deduped omitted when zero");
        assert!(line.contains("8 threads"));
        assert!(line.contains("isosceles/R99"));
        assert!(!line.contains('\n'));

        let with_dedup = EngineStats {
            deduped: 3,
            ..stats
        };
        assert!(with_dedup.summary().contains("3 deduped"));
        assert_eq!(with_dedup.jobs_total(), 47);
    }
}
