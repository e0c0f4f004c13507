//! The worker pool behind the server: a crossbeam channel of jobs
//! drained by N threads, each funneling simulations through the shared
//! [`SuiteEngine`] so caching and single-flight dedup apply across
//! every connection.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use isos_sim::metrics::StreamMetrics;
use isos_stream::StreamConfig;
use isos_trace::breakdown::StallBreakdown;
use isosceles_bench::engine::{JobRecord, SuiteEngine};
use isosceles_bench::stream::run_stream_cached;
use isosceles_bench::trace::{accel_by_name, trace_workload};
use serde::json::Value;
use serde::Serialize;

use crate::protocol::{JobSpec, ModelSpec, Response};

/// One job as queued to the pool: the spec, its position in the
/// request, and where to send the outcome.
struct Job {
    index: usize,
    spec: JobSpec,
    reply: Sender<JobOutcome>,
}

/// What a worker sends back for one job.
pub struct JobOutcome {
    /// The job's index within its request.
    pub index: usize,
    /// The finished row, or a message describing why it failed.
    pub result: Result<Row, String>,
}

/// A finished job's `row` response line. The worker renders it, so the
/// short-lived connection thread that sends it allocates no copy of the
/// metrics: each new connection thread may get a fresh malloc arena,
/// which would keep that copy's high-water mark.
pub struct Row {
    /// Whether the result came from the persistent cache.
    pub cache_hit: bool,
    /// Whether the result came from an identical in-flight job.
    pub deduped: bool,
    /// The serialized line ([`Response::row`]), without its newline.
    pub line: String,
}

/// A finished simulation, ready to serialize as a `row` response.
struct JobDone {
    /// Canonical model name ([`Accelerator::name`]) the job ran on.
    ///
    /// [`Accelerator::name`]: isosceles::accel::Accelerator::name
    model: String,
    /// Whether the result came from the persistent cache.
    cache_hit: bool,
    /// Whether the result came from an identical in-flight job.
    deduped: bool,
    /// Wall time of the job in milliseconds.
    millis: f64,
    /// The metrics, pre-serialized to a JSON tree.
    metrics: Value,
    /// Per-unit stall breakdowns, for traced jobs.
    stalls: Option<Vec<StallBreakdown>>,
}

impl JobDone {
    /// An untraced row as the engine produced it.
    fn untraced(record: JobRecord, metrics: Value) -> Self {
        Self {
            model: record.accel,
            cache_hit: record.cache_hit,
            deduped: record.deduped,
            millis: record.millis,
            metrics,
            stalls: None,
        }
    }

    fn row(&self, index: usize, spec: &JobSpec) -> Row {
        let line = Response::row(
            index,
            spec,
            &self.model,
            self.cache_hit,
            self.deduped,
            self.millis,
            &self.metrics,
            self.stalls.as_deref().map(stalls_value),
        );
        Row {
            cache_hit: self.cache_hit,
            deduped: self.deduped,
            line,
        }
    }
}

/// Lifetime counters for one worker thread.
#[derive(Debug, Default)]
struct WorkerCounters {
    jobs: AtomicU64,
    busy_micros: AtomicU64,
}

/// A snapshot of one worker's lifetime activity, for `stats` responses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerStats {
    /// Jobs this worker finished.
    pub jobs: u64,
    /// Total wall time this worker spent inside jobs, in milliseconds.
    pub busy_millis: f64,
}

/// The dispatcher: submit jobs, receive outcomes on per-request
/// channels, inspect per-worker utilization.
pub struct WorkerPool {
    submit: Mutex<Option<Sender<Job>>>,
    /// Jobs submitted that no worker has picked up yet.
    queued: Arc<AtomicU64>,
    counters: Vec<Arc<WorkerCounters>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` threads draining a shared job queue into
    /// `engine`.
    pub fn new(engine: SuiteEngine, workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        let queued = Arc::new(AtomicU64::new(0));
        let counters: Vec<Arc<WorkerCounters>> = (0..workers)
            .map(|_| Arc::new(WorkerCounters::default()))
            .collect();
        let handles = counters
            .iter()
            .map(|counters| {
                let rx = rx.clone();
                let engine = engine.clone();
                let counters = Arc::clone(counters);
                let queued = Arc::clone(&queued);
                std::thread::spawn(move || {
                    for job in rx.iter() {
                        queued.fetch_sub(1, Ordering::Relaxed);
                        let started = Instant::now();
                        let done = catch_unwind(AssertUnwindSafe(|| run_job(&engine, &job.spec)))
                            .unwrap_or_else(|panic| {
                                Err(format!("job panicked: {}", panic_message(&panic)))
                            });
                        counters.jobs.fetch_add(1, Ordering::Relaxed);
                        counters
                            .busy_micros
                            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                        let result = match &done {
                            Ok(done) => Ok(done.row(job.index, &job.spec)),
                            Err(message) => Err(message.clone()),
                        };
                        job.reply.send(JobOutcome {
                            index: job.index,
                            result,
                        });
                        // `done` and its metrics tree are freed only now,
                        // once the reply is on its way.
                    }
                })
            })
            .collect();
        Self {
            submit: Mutex::new(Some(tx)),
            queued,
            counters,
            handles: Mutex::new(handles),
        }
    }

    /// Queues one job; its outcome arrives on `reply`. Returns `false`
    /// if the pool has already shut down.
    pub fn submit(&self, index: usize, spec: JobSpec, reply: Sender<JobOutcome>) -> bool {
        let guard = self.submit.lock().expect("pool submit lock");
        match guard.as_ref() {
            Some(tx) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                tx.send(Job { index, spec, reply });
                true
            }
            None => false,
        }
    }

    /// Jobs submitted that no worker has picked up yet.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Per-worker lifetime activity snapshots.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.counters
            .iter()
            .map(|c| WorkerStats {
                jobs: c.jobs.load(Ordering::Relaxed),
                busy_millis: c.busy_micros.load(Ordering::Relaxed) as f64 / 1e3,
            })
            .collect()
    }

    /// Closes the queue and joins every worker. In-flight jobs finish;
    /// queued jobs still drain (submitters have already been promised an
    /// outcome). Idempotent.
    pub fn shutdown(&self) {
        drop(self.submit.lock().expect("pool submit lock").take());
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("pool handles lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Resolves and runs one job on the shared engine.
fn run_job(engine: &SuiteEngine, spec: &JobSpec) -> Result<JobDone, String> {
    let workload =
        isos_nn::models::try_suite_workload(&spec.workload, spec.seed).ok_or_else(|| {
            format!(
                "unknown workload `{}` (expected one of {})",
                spec.workload,
                isos_nn::models::SUITE_IDS.join(", ")
            )
        })?;
    let accel: Box<dyn isosceles::accel::Accelerator> = match &spec.model {
        ModelSpec::Named(name) => accel_by_name(name).ok_or_else(|| {
            format!(
                "unknown model `{name}` (expected one of {})",
                isosceles_bench::trace::MODEL_NAMES.join(", ")
            )
        })?,
        ModelSpec::Inline(point) => Box::new(point.config),
        ModelSpec::Arch(desc) => Box::new(
            isos_explore::arch::ArchAccel::new((**desc).clone())
                .map_err(|e| format!("invalid arch description: {e}"))?,
        ),
    };

    if let Some(cfg) = &spec.stream {
        return run_stream_job(engine, spec, accel.as_ref(), cfg);
    }

    if spec.trace {
        // Traced runs bypass the cache: the event stream is not stored,
        // and the metrics are bit-identical to untraced ones anyway.
        let started = Instant::now();
        let run = trace_workload(&workload, accel.as_ref(), spec.seed);
        return Ok(JobDone {
            model: run.model,
            cache_hit: false,
            deduped: false,
            millis: started.elapsed().as_secs_f64() * 1e3,
            metrics: run.metrics.to_value(),
            stalls: Some(run.buffer.breakdowns()),
        });
    }

    let (metrics, record) = engine.run_job(&workload, accel.as_ref(), spec.seed);
    Ok(JobDone::untraced(record, metrics.to_value()))
}

/// Runs one batched streaming scenario. Untraced streams take the
/// engine's one result path (cache and single-flight claim, `"stream"`
/// payload kind); traced streams always simulate and attach per-request
/// span breakdowns.
fn run_stream_job(
    engine: &SuiteEngine,
    spec: &JobSpec,
    accel: &dyn isosceles::accel::Accelerator,
    cfg: &StreamConfig,
) -> Result<JobDone, String> {
    let started = Instant::now();
    if spec.trace {
        let mut buffer = isos_trace::EventBuffer::new();
        let metrics =
            isos_stream::run_stream_traced(accel, &spec.workload, spec.seed, cfg, &mut buffer);
        return Ok(JobDone {
            model: accel.name().to_string(),
            cache_hit: false,
            deduped: false,
            millis: started.elapsed().as_secs_f64() * 1e3,
            metrics: stream_value(&metrics, cfg),
            stalls: Some(buffer.breakdowns()),
        });
    }
    let (metrics, record) = run_stream_cached(engine, accel, &spec.workload, spec.seed, cfg)?;
    Ok(JobDone::untraced(record, stream_value(&metrics, cfg)))
}

/// Serializes a stream row for the wire: the latency/throughput summary
/// plus the conserved totals, without the per-request span list (a
/// 256-request stream would be kilobytes of spans per row).
fn stream_value(s: &StreamMetrics, cfg: &StreamConfig) -> Value {
    Value::Obj(vec![
        ("requests".to_string(), Value::U64(s.requests.len() as u64)),
        ("batch".to_string(), Value::U64(cfg.batch)),
        ("cycles".to_string(), Value::U64(s.total.cycles)),
        (
            "throughput_imgs_per_sec".to_string(),
            Value::F64(s.throughput_imgs_per_sec(cfg.clock_ghz)),
        ),
        ("p50_cycles".to_string(), Value::U64(s.p50())),
        ("p95_cycles".to_string(), Value::U64(s.p95())),
        ("p99_cycles".to_string(), Value::U64(s.p99())),
        ("busy_cycles".to_string(), Value::U64(s.busy_cycles)),
        ("idle_cycles".to_string(), Value::U64(s.idle_cycles)),
        (
            "formation_cycles".to_string(),
            Value::U64(s.formation_cycles),
        ),
        ("batches".to_string(), Value::U64(s.batches)),
        ("queue_max_depth".to_string(), Value::U64(s.queue.max_depth)),
        (
            "queue_mean_depth".to_string(),
            Value::F64(s.queue.mean_depth),
        ),
        ("total".to_string(), s.total.to_value()),
    ])
}

/// Best-effort text of a panic payload.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Serializes stall breakdowns for a `row` response.
fn stalls_value(stalls: &[StallBreakdown]) -> Value {
    Value::Arr(
        stalls
            .iter()
            .map(|b| {
                let mut pairs = vec![
                    ("unit".to_string(), Value::Str(b.name.clone())),
                    ("kind".to_string(), Value::Str(b.kind.label().to_string())),
                    ("cycles".to_string(), Value::U64(b.cycles)),
                    ("busy".to_string(), Value::F64(b.busy)),
                ];
                for kind in isos_trace::event::StallKind::ALL {
                    pairs.push((kind.label().to_string(), Value::F64(b.stalls[kind.index()])));
                }
                Value::Obj(pairs)
            })
            .collect(),
    )
}
