//! Cached, parallel streaming-inference runs over the suite engine.
//!
//! `isos-stream` owns the request generator and the scheduler; this
//! module supplies the stream's key and its request fan-out. Per-request
//! simulations fan out over the engine's worker-thread budget (assembled
//! by request index, so results are bit-identical regardless of thread
//! count), and the assembled [`StreamMetrics`] row takes the engine's one
//! result path ([`SuiteEngine::run_job`]'s): recalled from the
//! [`CacheStore`](crate::cache::CacheStore) under the `"stream"` payload
//! kind, else computed once however many identical streams are in
//! flight. Only the finished row is cached — a 256-request stream would
//! otherwise dump hundreds of per-request entries into the store for a
//! scenario nobody addresses by request.

use isos_nn::models::SUITE_IDS;
use isos_stream::gen::{request_seed, request_workload};
use isos_stream::{arrivals, schedule, StreamConfig, StreamMetrics};
use isosceles::accel::{fnv1a, Accelerator, FNV_OFFSET};

use crate::cache::EntryMeta;
use crate::engine::{fan_out, JobRecord, SuiteEngine, WorkloadId, SCHEMA_VERSION};
use isos_sim::metrics::RunMetrics;

/// Payload kind streaming rows are stored under.
pub const STREAM_KIND: &str = "stream";

/// Content hash addressing one `(accelerator, workload, scenario, seed)`
/// streaming row under the current schema version. The `"stream"` tag
/// keeps the key space disjoint from [`crate::engine::job_key`] even
/// for `batch = 1` degenerate scenarios.
pub fn stream_key(
    accel: &dyn Accelerator,
    workload: &WorkloadId,
    cfg: &StreamConfig,
    seed: u64,
) -> u64 {
    let h = fnv1a(FNV_OFFSET, &SCHEMA_VERSION.to_le_bytes());
    let h = fnv1a(h, STREAM_KIND.as_bytes());
    let h = fnv1a(h, &accel.cache_key().to_le_bytes());
    let h = fnv1a(h, workload.as_str().as_bytes());
    let h = fnv1a(h, &cfg.cache_key().to_le_bytes());
    fnv1a(h, &seed.to_le_bytes())
}

/// Simulates every request of the stream, fanning out over `threads`
/// workers; results are assembled by request index, so the output is
/// independent of thread count and scheduling.
///
/// # Panics
///
/// Panics if `workload` is not a suite id.
fn simulate_requests(
    accel: &dyn Accelerator,
    workload: &str,
    seed: u64,
    cfg: &StreamConfig,
    threads: usize,
) -> Vec<RunMetrics> {
    fan_out(cfg.requests as usize, threads, |i| {
        let r = i as u64;
        let w = request_workload(workload, seed, r).expect("a suite id");
        accel.simulate(&w.network, request_seed(seed, r)).total
    })
}

/// Runs (or recalls) one streaming scenario through the engine's cache
/// and single-flight table: identical scenarios in flight at once cost
/// one computation.
///
/// # Errors
///
/// `cfg` fails validation or `workload` is not a suite id; both are
/// checked before anything is claimed or computed.
pub fn run_stream_cached(
    engine: &SuiteEngine,
    accel: &dyn Accelerator,
    workload: &str,
    seed: u64,
    cfg: &StreamConfig,
) -> Result<(StreamMetrics, JobRecord), String> {
    cfg.validate()
        .map_err(|e| format!("bad stream config: {e}"))?;
    if !SUITE_IDS.contains(&workload) {
        return Err(format!("unknown workload id {workload:?}"));
    }
    let id = WorkloadId::new(workload);
    let key = stream_key(accel, &id, cfg, seed);
    let meta = EntryMeta {
        accel: accel.name().to_string(),
        accel_key: accel.cache_key(),
        workload: id,
        seed,
    };
    Ok(engine.run_row(key, STREAM_KIND, meta, || {
        let singles = simulate_requests(accel, workload, seed, cfg, engine.options().threads);
        schedule(&singles, &arrivals(cfg, seed), cfg)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::suite::SEED;
    use crate::trace::{accel_by_name, MODEL_NAMES};
    use isos_nn::models::suite_workload;
    use isos_stream::{Arrival, BatchPolicy};
    use isosceles::IsoscelesConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("isos-stream-{}-{}-{}", std::process::id(), tag, n));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine(threads: usize, use_cache: bool, tag: &str) -> SuiteEngine {
        SuiteEngine::new(EngineOptions {
            threads,
            use_cache,
            cache_dir: scratch_dir(tag),
            quiet: true,
            ..EngineOptions::default()
        })
    }

    /// [`run_stream_cached`] on a valid scenario: the row and whether it
    /// was a cache hit.
    fn run_stream_cached(
        engine: &SuiteEngine,
        accel: &dyn Accelerator,
        workload: &str,
        seed: u64,
        cfg: &StreamConfig,
    ) -> (StreamMetrics, bool) {
        let (row, record) =
            super::run_stream_cached(engine, accel, workload, seed, cfg).expect("a valid scenario");
        (row, record.cache_hit)
    }

    fn small_cfg(requests: u64, batch: u64) -> StreamConfig {
        StreamConfig {
            requests,
            batch,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn same_seed_is_bit_identical_across_thread_counts() {
        // Satellite: the assembled stream (request order, spans, and
        // metrics) must not depend on --threads.
        let accel = IsoscelesConfig::default();
        let cfg = StreamConfig {
            requests: 6,
            batch: 2,
            arrival: Arrival::Poisson { mean: 50_000.0 },
            policy: BatchPolicy::WaitFull,
            ..StreamConfig::default()
        };
        let (serial, _) = run_stream_cached(&engine(1, false, "t1"), &accel, "G58", SEED, &cfg);
        let (parallel, _) = run_stream_cached(&engine(4, false, "t4"), &accel, "G58", SEED, &cfg);
        assert_eq!(serial, parallel);
        // And the whole thing is a pure function of the seed.
        let (replay, _) = run_stream_cached(&engine(3, false, "t3"), &accel, "G58", SEED, &cfg);
        assert_eq!(serial, replay);
        let (other, _) = run_stream_cached(&engine(3, false, "t5"), &accel, "G58", SEED + 1, &cfg);
        assert_ne!(serial, other, "seed must actually matter");
    }

    #[test]
    fn matches_the_serial_reference_implementation() {
        let accel = IsoscelesConfig::default();
        let cfg = small_cfg(4, 2);
        let (engined, _) = run_stream_cached(&engine(4, false, "ref"), &accel, "G58", SEED, &cfg);
        let reference = isos_stream::run_stream(&accel, "G58", SEED, &cfg);
        assert_eq!(engined, reference);
    }

    #[test]
    fn batch1_single_request_equals_accelerator_simulate() {
        // Satellite: the degenerate stream is bit-identical to the
        // single-inference path the golden metrics lock down.
        let accel = IsoscelesConfig::default();
        let cfg = small_cfg(1, 1);
        let (s, _) = run_stream_cached(&engine(2, false, "golden"), &accel, "G58", SEED, &cfg);
        let golden = accel.simulate(&suite_workload("G58", SEED).network, SEED);
        assert_eq!(s.total, golden.total);
        assert_eq!(s.requests[0].metrics, golden.total);
        assert_eq!(s.busy_cycles, golden.total.cycles);
        assert_eq!((s.idle_cycles, s.formation_cycles), (0, 0));
    }

    #[test]
    fn stream_rows_are_cached_and_replayed() {
        let accel = IsoscelesConfig::default();
        let cfg = small_cfg(3, 2);
        let eng = engine(2, true, "cache");
        let (cold, hit) = run_stream_cached(&eng, &accel, "G58", SEED, &cfg);
        assert!(!hit);
        let (warm, hit) = run_stream_cached(&eng, &accel, "G58", SEED, &cfg);
        assert!(hit, "second run must come from the cache");
        assert_eq!(warm, cold);
        // A different scenario misses: the config is part of the key.
        let (_, hit) = run_stream_cached(&eng, &accel, "G58", SEED, &small_cfg(3, 3));
        assert!(!hit);
    }

    #[test]
    fn bad_scenarios_are_errors_before_anything_runs() {
        let accel = IsoscelesConfig::default();
        let eng = engine(1, true, "bad");
        let err = |workload: &str, cfg: &StreamConfig| {
            super::run_stream_cached(&eng, &accel, workload, SEED, cfg).map(|(row, _)| row)
        };
        assert_eq!(
            err("G58", &small_cfg(0, 1)),
            Err("bad stream config: stream needs at least one request".to_string())
        );
        assert_eq!(
            err("X99", &small_cfg(1, 1)),
            Err("unknown workload id \"X99\"".to_string())
        );
        assert_eq!(eng.lifetime_cache().total() + eng.lifetime_deduped(), 0);
        assert_eq!(eng.lifetime_computes(), 0);
        assert_eq!(eng.cache_store().unwrap().counters().misses, 0, "no load");
    }

    #[test]
    fn stream_and_job_keys_never_collide() {
        let accel = IsoscelesConfig::default();
        let id = WorkloadId::new("G58");
        let jk = crate::engine::job_key(&accel, &id, SEED);
        let sk = stream_key(&accel, &id, &small_cfg(1, 1), SEED);
        assert_ne!(jk, sk);
    }

    #[test]
    fn suite_streams_conserve_latency_on_every_workload_and_model() {
        // Acceptance: per-request latency conservation (sum of span
        // cycles == reported stream cycles for the default burst
        // scenario) across all 11 workloads × 4 models.
        let eng = engine(4, false, "suite");
        let cfg = small_cfg(2, 2);
        for id in isos_nn::models::SUITE_IDS {
            for name in MODEL_NAMES {
                let accel = accel_by_name(name).expect("paper model");
                let (s, _) = run_stream_cached(&eng, accel.as_ref(), id, SEED, &cfg);
                assert_eq!(s.requests.len(), 2, "{name}/{id}");
                assert_eq!(s.service_sum(), s.busy_cycles);
                assert_eq!(
                    s.busy_cycles + s.idle_cycles + s.formation_cycles,
                    s.total.cycles
                );
                // Burst arrivals: the makespan is exactly the sum of
                // span service cycles.
                assert_eq!(s.service_sum(), s.total.cycles);
                assert!(s.p99() >= s.p50());
                assert!(s.throughput_imgs_per_cycle() > 0.0);
            }
        }
    }
}
