//! `serve`: an in-process `Server::bind` on `127.0.0.1:0` with a worker
//! per core, driven by up to two closed-loop clients (callers of `serve`
//! wait for each reply). Each request opens a new connection, as
//! `isos-client` does. Rounds keep the clients in step; each round is a
//! seeded pick over the 11 workloads and 4 models of one kind:
//!
//! - misses, each with a seed not yet used in the run;
//! - warm hits on the 44 jobs set-up stored;
//! - dedup pairs, where both clients send the same cold job at once.
//!
//! The 40/40/20 split of the three kinds is an assumption: nothing
//! records how often callers of `serve` send each kind. The per-kind
//! round-trip percentiles do not depend on it; the request rate, the hit
//! ratio and the computes per job do.
//!
//! Before each round both clients sleep, outside the timed round trip,
//! until the instant [`Pacer`] plans, so that each request waits a seeded
//! time for the server's accept loop that is independent of the jobs.
//!
//! The cache directory starts empty; the store's working set is reported
//! against its byte bound.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isos_nn::models::{suite_workload, SUITE_IDS};
use isos_serve::protocol::{parse_request, JobSpec, Request, Response};
use isos_serve::{Server, ServerOptions};
use isos_sim::metrics::NetworkMetrics;
use isosceles_bench::cache::EntryMeta;
use isosceles_bench::engine::{job_key, EngineOptions, SuiteEngine, WorkloadId};
use serde::json::Value;
use serde::Deserialize;

use crate::check::{digest, expect_same, text_digest, Models, Tally};
use crate::stats::{calibration_on_ms, mean, median, quantile, Metric, REFERENCE_CAL_MS};
use crate::trace::{Profile, Tracer};
use crate::{Outcome, Run};

/// Byte bound of the server's cache store.
const CACHE_BYTES: u64 = 64 << 20;

/// Longest a client waits for a reply line.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Most clients the load generator runs (two make a dedup pair).
const MAX_CLIENTS: usize = 2;

/// How long the server's accept loop sleeps whenever no connection is
/// waiting (`POLL_INTERVAL` in `crates/serve`).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A running in-process server; dropping it drains and joins it.
struct Served {
    engine: SuiteEngine,
    addr: SocketAddr,
    stop: Arc<dyn Fn() + Send + Sync>,
    handle: Option<JoinHandle<()>>,
}

impl Served {
    fn start(run: &Run, cache_dir: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: run.threads,
            idle_timeout: REPLY_TIMEOUT,
            engine: EngineOptions {
                threads: run.threads,
                use_cache: true,
                cache_dir: cache_dir.to_path_buf(),
                cache_bytes: Some(CACHE_BYTES),
                quiet: true,
            },
        })?;
        Ok(Self {
            engine: server.engine().clone(),
            addr: server.local_addr(),
            stop: server.stop_flag(),
            handle: Some(std::thread::spawn(move || server.run())),
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        (self.stop)();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// splitmix64 of three words: the load generator's only randomness.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Miss,
    Hit,
    Dedup,
}

/// One simulation job as requested on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Job {
    net: usize,
    model: usize,
    seed: u64,
}

impl Job {
    fn line(&self) -> String {
        format!(
            r#"{{"type":"run","workload":"{}","model":"{}","seed":{}}}"#,
            SUITE_IDS[self.net],
            Models::NAMES[self.model],
            self.seed
        )
    }
}

impl std::fmt::Display for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}@{}",
            SUITE_IDS[self.net],
            Models::NAMES[self.model],
            self.seed
        )
    }
}

/// The seeded request schedule: round `r`'s kind and client `c`'s job.
/// The kinds' 40/40/20 split is an assumed traffic mix, not a measured
/// one.
fn schedule(seed: u64, clients: usize, r: u64, c: usize) -> (Kind, Job) {
    let kind = match mix(seed, r, 1) % 10 {
        0..=3 => Kind::Miss,
        4..=7 => Kind::Hit,
        _ if clients > 1 => Kind::Dedup,
        _ => Kind::Miss,
    };
    // Dedup partners share the job; the fresh seeds of round r are
    // seed + 1 + 2r + c, so no two cold jobs of a run coincide.
    let lane = if kind == Kind::Dedup { 0 } else { c as u64 };
    let pick = mix(seed, r, 2 + lane);
    let fresh = seed.wrapping_add(1 + 2 * r + lane);
    let job = Job {
        net: (pick % SUITE_IDS.len() as u64) as usize,
        model: ((pick >> 32) % 4) as usize,
        seed: if kind == Kind::Hit { seed } else { fresh },
    };
    (kind, job)
}

/// A uniform draw from [0, 1) made of a `mix` word.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Least time between planning a round and sending it: room for the
/// leader's calibration kernel.
const LEAD: Duration = Duration::from_millis(4);

/// Plans when each round's requests go out.
///
/// The server's accept loop sleeps [`ACCEPT_POLL`] whenever no
/// connection is waiting, so a request first waits for the next wake-up.
/// A closed loop that sends each round as soon as the previous replies
/// land arrives the previous job's time after a wake-up, so that wait
/// would mirror the previous job instead of being independent of it. The
/// pacer instead estimates the last wake-up from each reply (connect
/// time + round trip - the server's own `done` time) and sends the next
/// round so that it waits a seeded target time. The targets of each
/// request kind are spread evenly over the poll period (a golden-ratio
/// sequence from a seeded start), so a round trip moves one-for-one with
/// its own job time and every kind waits half a period at the median.
/// Before any wake-up is seen, the round sends after a seeded pause
/// uniform over one period.
struct Pacer {
    seed: u64,
    deadline: Instant,
    state: Mutex<PacerState>,
}

#[derive(Default)]
struct PacerState {
    /// Earliest wake-up estimate from the last round's replies.
    wake: Option<Instant>,
    /// Rounds planned so far, per kind.
    planned: [u64; 3],
    /// Whether the current round runs.
    go: bool,
    /// When the current round's requests are sent.
    send_at: Option<Instant>,
}

impl Pacer {
    fn new(seed: u64, deadline: Instant) -> Self {
        Self {
            seed,
            deadline,
            state: Mutex::default(),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PacerState> {
        self.state.lock().expect("pacer lock")
    }

    /// Records one reply's estimate of the wake-up that accepted it.
    fn observe(&self, wake: Instant) {
        let mut s = self.state();
        s.wake = Some(s.wake.map_or(wake, |w| w.min(wake)));
    }

    /// Plans round `r`, of kind `kind`: whether it runs, and when.
    fn plan(&self, r: u64, kind: Kind) {
        let now = Instant::now();
        let mut s = self.state();
        s.go = r < crate::MIN_PASSES as u64 || now < self.deadline;
        let n = s.planned[kind as usize];
        s.planned[kind as usize] += 1;
        let start = unit(mix(self.seed, kind as u64, 5));
        let target = ACCEPT_POLL.mul_f64((start + n as f64 * 0.618_033_988_749_895).fract());
        s.send_at = Some(match s.wake.take() {
            Some(wake) => {
                let ahead = (now + LEAD + target).saturating_duration_since(wake);
                let periods = (ahead.as_secs_f64() / ACCEPT_POLL.as_secs_f64()).ceil();
                wake + ACCEPT_POLL.mul_f64(periods) - target
            }
            None => now + ACCEPT_POLL.mul_f64(unit(mix(self.seed, r, 4))),
        });
    }

    /// The current round's plan.
    fn current(&self) -> (bool, Option<Instant>) {
        let s = self.state();
        (s.go, s.send_at)
    }
}

/// One request as the client saw it.
struct Reply {
    kind: Kind,
    job: Job,
    round: u64,
    /// The request as the server parses it.
    spec: Option<JobSpec>,
    /// Connect to `done`, in ms.
    rt_ms: f64,
    /// Estimated server wake-up that accepted the connection: connect
    /// time + round trip - the server's `done` time.
    wake: Option<Instant>,
    /// The server's `done` wall time, in ms.
    done_ms: f64,
    /// The `row` line's head fields and the FNV-1a digest of the whole
    /// line; the line itself is dropped.
    row: Option<(RowHead, u64)>,
    /// Why the request failed, if it did.
    error: Option<String>,
}

/// Sends `line` on a new connection; returns the raw `row` line (if
/// any) and the `done` line's wall time.
fn round_trip(addr: SocketAddr, line: &str) -> Result<(Option<String>, f64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut row = None;
    loop {
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("connection closed before `done`".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let text = buf.trim_end();
        if text.starts_with(r#"{"type":"row""#) {
            row = Some(text.to_string());
            continue;
        }
        let v = serde::json::parse(text).map_err(|e| format!("bad reply: {e}"))?;
        return match v.field("type").ok().and_then(Value::as_str) {
            Some("done") => Ok((
                row,
                v.field("wall_millis")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            )),
            _ => Err(text.to_string()),
        };
    }
}

/// One request: parse the request line as the server will, then the
/// round trip on a new connection. Only the row's head and a digest of
/// the line are kept, so the load generator holds the same few bytes per
/// request however many it sends; the checks after the window compare
/// the digest.
fn request(t: &mut Tracer, addr: SocketAddr, kind: Kind, job: Job, round: u64) -> Reply {
    t.pass("serve.request", |t| {
        let line = job.line();
        let mut reply = Reply {
            kind,
            job,
            round,
            spec: None,
            rt_ms: 0.0,
            wake: None,
            done_ms: 0.0,
            row: None,
            error: None,
        };
        match t.span("serve.parse", |_| parse_request(&line)) {
            Ok(Request::Run(spec)) => reply.spec = Some(*spec),
            other => {
                reply.error = Some(format!("request line parses as {other:?}"));
                return reply;
            }
        }
        let started = Instant::now();
        let result = t.span("serve.round_trip", |_| round_trip(addr, &line));
        reply.rt_ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((Some(line), done_ms)) => {
                reply.done_ms = done_ms;
                reply.wake = Duration::try_from_secs_f64((reply.rt_ms - done_ms).max(0.0) / 1e3)
                    .ok()
                    .map(|wait| started + wait);
                reply.row = t.span("serve.decode", |_| {
                    decode_head(&line).map(|head| (head, text_digest(&line)))
                });
                if reply.row.is_none() {
                    reply.error = Some("undecodable row".into());
                }
            }
            Ok((None, _)) => reply.error = Some("no row before `done`".into()),
            Err(e) => reply.error = Some(e),
        }
        reply
    })
}

/// The small fields a `row` line carries before its `metrics` object.
struct RowHead {
    index: usize,
    model: String,
    cache_hit: bool,
    deduped: bool,
    millis: f64,
}

/// Decodes a row's head: everything before `,"metrics":`, which
/// `Response::row` writes after every other field.
fn decode_head(line: &str) -> Option<RowHead> {
    let head = &line[..line.find(r#","metrics":"#)?];
    let v = serde::json::parse(&format!("{head}}}")).ok()?;
    let flag = |name: &str| v.field(name).ok()?.as_bool().ok();
    Some(RowHead {
        index: usize::try_from(v.field("index").ok()?.as_u64().ok()?).ok()?,
        model: v.field("model").ok()?.as_str()?.to_string(),
        cache_hit: flag("cache_hit")?,
        deduped: flag("deduped")?,
        millis: v.field("millis").ok()?.as_f64().ok()?,
    })
}

/// The metrics a row carries.
fn row_metrics(row: &Value) -> Option<NetworkMetrics> {
    NetworkMetrics::from_value(row.field("metrics").ok()?).ok()
}

/// What one client did in the window.
struct ClientLog {
    replies: Vec<Reply>,
    /// Time the client slept until the planned send instants, in ms.
    paused_ms: f64,
    /// Client time outside requests and pauses (barrier waits, oversleep,
    /// bookkeeping), in ms.
    lateness_ms: f64,
    /// Calibration kernel times of the rounds this client led, in ms.
    calibration_ms: Vec<f64>,
    tracer: Tracer,
}

/// One closed-loop client. Rounds start together on `barrier`; the
/// round's leader plans it with `pacer`.
fn client(
    run: &Run,
    addr: SocketAddr,
    c: usize,
    clients: usize,
    barrier: &Barrier,
    pacer: &Pacer,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        replies: Vec::new(),
        paused_ms: 0.0,
        lateness_ms: 0.0,
        calibration_ms: Vec::new(),
        tracer: Tracer::new(epoch),
    };
    let mut plain = Tracer::disabled();
    let started = Instant::now();
    for round in 0u64.. {
        let (kind, job) = schedule(run.seed, clients, round, c);
        if barrier.wait().is_leader() {
            pacer.plan(round, kind);
            // Nothing runs until the round is sent, so the kernel is
            // timed on an idle machine.
            log.calibration_ms.push(calibration_on_ms(run.threads));
        }
        barrier.wait();
        let (go, send_at) = pacer.current();
        if !go {
            break;
        }
        let delay = send_at.map_or(Duration::ZERO, |at| {
            at.saturating_duration_since(Instant::now())
        });
        std::thread::sleep(delay);
        log.paused_ms += delay.as_secs_f64() * 1e3;
        let t = if run.traced(round as usize) {
            &mut log.tracer
        } else {
            &mut plain
        };
        let reply = request(t, addr, kind, job, round);
        if let Some(wake) = reply.wake {
            pacer.observe(wake);
        }
        log.replies.push(reply);
    }
    let busy: f64 = log.replies.iter().map(|r| r.rt_ms).sum();
    let calibrating: f64 = log.calibration_ms.iter().sum();
    log.lateness_ms = started.elapsed().as_secs_f64() * 1e3 - busy - log.paused_ms - calibrating;
    log
}

/// Sends the 44-job warm-up matrix; returns each row's metrics by job
/// index (workload-major, model-minor).
fn warm_up(addr: SocketAddr, seed: u64) -> Result<Vec<Option<NetworkMetrics>>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(format!("{{\"type\":\"matrix\",\"seed\":{seed}}}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut rows = vec![None; SUITE_IDS.len() * 4];
    for line in BufReader::new(stream).lines() {
        let v = serde::json::parse(&line.map_err(|e| format!("read: {e}"))?)
            .map_err(|e| format!("bad reply: {e}"))?;
        match v.field("type").ok().and_then(Value::as_str) {
            Some("row") => {
                let i = v.field("index").and_then(Value::as_u64).unwrap_or(u64::MAX) as usize;
                if let Some(slot) = rows.get_mut(i) {
                    *slot = row_metrics(&v);
                }
            }
            Some("done") => return Ok(rows),
            _ => return Err(v.render()),
        }
    }
    Err("connection closed before `done`".into())
}

/// Replays a cold job directly, one layer call at a time: the network
/// build and simulation the server ran and, with `store_too`, its cache
/// entry read back and written again. Returns the direct metrics and
/// the stored entry (`None` without `store_too`).
fn replay(
    t: &mut Tracer,
    models: &Models,
    engine: &SuiteEngine,
    job: Job,
    store_too: bool,
) -> (NetworkMetrics, Option<NetworkMetrics>) {
    let id = SUITE_IDS[job.net];
    let w = t.span("nn.build", |_| suite_workload(id, job.seed));
    let metrics = models.simulate_layers(t, job.model, &w.network, job.seed);
    if !store_too {
        return (metrics, None);
    }
    let accel = models.all()[job.model];
    let (key, meta) = t.span("engine.key", |_| {
        let wid = WorkloadId::new(id);
        let meta = EntryMeta {
            accel: accel.name().to_string(),
            accel_key: accel.cache_key(),
            workload: wid.clone(),
            seed: job.seed,
        };
        (job_key(accel, &wid, job.seed), meta)
    });
    let Some(store) = engine.cache_store() else {
        return (metrics, None);
    };
    let stored = t.span("cache.load", |_| store.load(key, &meta));
    t.span("cache.store", |_| store.store(key, &meta, &metrics));
    (metrics, stored)
}

/// What the checks learned about one answered request.
struct Seen {
    kind: Kind,
    round: u64,
    rt_ms: f64,
    done_ms: f64,
    /// The row's server-side job time.
    job_ms: f64,
    deduped: bool,
}

/// Checks one request, or both of a dedup pair, one layer call at a
/// time: each row's digest must equal that of what `Response::row`
/// writes for a direct simulation of its job (the 44-job reference for
/// hits, a replay otherwise) under the row's own head. So a row with
/// other metrics, or a row the protocol would not write, fails; and the
/// two rows of a dedup pair, both equal to one replay, agree. A warm hit
/// must come back `cache_hit`, and a miss must not.
fn verify(
    t: &mut Tracer,
    models: &Models,
    engine: &SuiteEngine,
    reference: &[NetworkMetrics],
    group: &[Reply],
    store_too: bool,
    seen: &mut Vec<Seen>,
) -> Vec<String> {
    t.pass("serve.verify", |t| {
        let first = &group[0];
        let mut problems = Vec::new();
        let replayed;
        let want = if first.kind == Kind::Hit {
            Some(&reference[first.job.net * 4 + first.job.model])
        } else if group.iter().any(|r| r.row.is_some()) {
            // The store check reads a whole entry back, so only the
            // traced run, which times `cache.*` on this workload, makes it.
            let (direct, stored) = replay(t, models, engine, first.job, store_too);
            if store_too && stored.as_ref() != Some(&direct) {
                problems.push(format!("{}: the server's cache entry differs", first.job));
            }
            replayed = direct;
            Some(&replayed)
        } else {
            None
        };
        for reply in group {
            let job = reply.job;
            if let Some(e) = &reply.error {
                problems.push(format!("{job}: {e}"));
            }
            let (Some((head, row_digest)), Some(spec), Some(want)) =
                (&reply.row, &reply.spec, want)
            else {
                continue;
            };
            match (reply.kind, head.cache_hit) {
                (Kind::Hit, false) => problems.push(format!("{job}: a warm hit was recomputed")),
                (Kind::Miss, true) => {
                    problems.push(format!("{job}: a miss was answered from the cache"))
                }
                _ => {}
            }
            let expected = t.span("serve.encode", |_| {
                let metrics = serde::Serialize::to_value(want);
                let model = head.model.as_str();
                Response::row(
                    head.index,
                    spec,
                    model,
                    head.cache_hit,
                    head.deduped,
                    head.millis,
                    &metrics,
                    None,
                )
            });
            if t.span("check.compare", |_| text_digest(&expected) != *row_digest) {
                problems.push(format!(
                    "{job}: the row is not `Response::row` of a direct simulation"
                ));
            }
            seen.push(Seen {
                kind: reply.kind,
                round: reply.round,
                rt_ms: reply.rt_ms,
                done_ms: reply.done_ms,
                job_ms: head.millis,
                deduped: head.deduped,
            });
        }
        problems
    })
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let models = Models::default();
    let cache_dir = run.dir.join("serve-cache");
    let reference = crate::simulate::pass(&models, run.seed);
    let mut tally = Tally::default();

    // Set-up: bind a server on an empty cache and store the warm set.
    let ((served, warm), setup_s) = run.setup(|| {
        let served = Served::start(run, &cache_dir).expect("bind 127.0.0.1:0");
        let warm = warm_up(served.addr, run.seed);
        (served, warm)
    });
    let mut problems = Vec::new();
    match warm {
        Ok(rows) => {
            for (k, (got, want)) in rows.iter().zip(&reference).enumerate() {
                match got {
                    Some(got) => expect_same(&mut problems, &format!("warm row {k}"), got, want),
                    None => problems.push(format!("warm row {k} missing")),
                }
            }
        }
        Err(e) => problems.push(format!("warm-up: {e}")),
    }
    tally.record("warm-up matrix", problems);

    // The measured window.
    let clients = run.threads.clamp(1, MAX_CLIENTS);
    let (computes0, jobs0) = (served.engine.lifetime_computes(), jobs_done(&served.engine));
    let store = served
        .engine
        .cache_store()
        .expect("the server's cache is on");
    let counters0 = store.counters();
    let barrier = Barrier::new(clients);
    let epoch = Instant::now();
    let pacer = Pacer::new(run.seed, epoch + run.window);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, pacer) = (&barrier, &pacer);
                s.spawn(move || client(run, served.addr, c, clients, barrier, pacer, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let computes = served.engine.lifetime_computes() - computes0;
    let jobs = jobs_done(&served.engine) - jobs0;
    let counters = store.counters();
    let usage = store.usage();
    let engine = served.engine.clone();
    drop(served);

    let mut profile = Profile::default();
    let (mut lateness, mut paused_ms) = (0.0, 0.0_f64);
    let mut replies = Vec::new();
    let mut calibration = Vec::new();
    for log in logs {
        lateness += log.lateness_ms;
        paused_ms = paused_ms.max(log.paused_ms);
        calibration.extend(log.calibration_ms);
        replies.extend(log.replies);
        profile.absorb(log.tracer);
    }
    replies.sort_by_key(|r| r.round);
    let requests = replies.len();
    let lateness_ms = lateness / requests.max(1) as f64;

    let mut verify_tracer = if run.trace {
        Tracer::new(epoch)
    } else {
        Tracer::disabled()
    };
    let mut seen = Vec::new();
    for group in replies.chunk_by(|a, b| a.kind == Kind::Dedup && a.round == b.round) {
        let problems = verify(
            &mut verify_tracer,
            &models,
            &engine,
            &reference,
            group,
            run.trace,
            &mut seen,
        );
        for reply in group {
            tally.record(&format!("{:?} request", reply.kind), problems.clone());
        }
    }
    if counters.quarantined > 0 {
        tally.record(
            "cache",
            vec![format!("{} entries quarantined", counters.quarantined)],
        );
    }
    profile.absorb(verify_tracer);

    // Where a request's time goes: new-connection wait versus job time.
    let busy_s = window_s - paused_ms / 1e3;
    eprintln!(
        "serve: {requests} requests on {clients} clients in {window_s:.2} s ({busy_s:.2} s \
         outside the seeded pauses), load generator lateness {lateness_ms:.3} ms per request; \
         store working set {:.2} MiB of {} MiB",
        usage.bytes as f64 / (1 << 20) as f64,
        CACHE_BYTES >> 20
    );
    eprintln!(
        "  {:<6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kind", "n", "rt ms", "done ms", "job ms", "wait p10", "wait p50", "wait p90"
    );
    for k in [Kind::Miss, Kind::Hit, Kind::Dedup] {
        let of: Vec<&Seen> = seen.iter().filter(|s| s.kind == k).collect();
        let avg = |f: fn(&Seen) -> f64| mean(&of.iter().map(|s| f(s)).collect::<Vec<_>>());
        let waits: Vec<f64> = of.iter().map(|s| s.rt_ms - s.done_ms).collect();
        eprintln!(
            "  {:<6} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            format!("{k:?}").to_lowercase(),
            of.len(),
            avg(|s| s.rt_ms),
            avg(|s| s.done_ms),
            avg(|s| s.job_ms),
            quantile(&waits, 0.1),
            median(&waits),
            quantile(&waits, 0.9)
        );
    }

    // The server's `done` time is CPU work and is reported in reference
    // ms (see `stats::timed`), scaled by the run's median kernel time;
    // the accept wait and the transfer are not.
    let scale = REFERENCE_CAL_MS / median(&calibration);
    let untraced = |k: Option<Kind>, rt: fn(&Seen, f64) -> f64| -> Vec<f64> {
        seen.iter()
            .filter(|s| k.is_none_or(|k| s.kind == k) && !run.traced(s.round as usize))
            .map(|s| rt(s, scale))
            .collect()
    };
    let reference_rt = |s: &Seen, scale: f64| s.rt_ms + s.done_ms * (scale - 1.0);
    let extra = if run.trace {
        let layers = profile.layers();
        let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls as usize);
        let all = |f: fn(&Seen) -> f64| mean(&seen.iter().map(f).collect::<Vec<_>>());
        let pairs: Vec<&Seen> = seen.iter().filter(|s| s.kind == Kind::Dedup).collect();
        let deduped = pairs.iter().filter(|s| s.deduped).count();
        let lookups = counters.hits + counters.misses - counters0.hits - counters0.misses;
        let mut m: Vec<Metric> = [
            ("baselines.sim_ms", "baselines.sim"),
            ("cache.load_ms", "cache.load"),
            ("cache.store_ms", "cache.store"),
            ("serve.encode_ms", "serve.encode"),
        ]
        .into_iter()
        .map(|(metric, span)| Metric::lower(metric, "ms", profile.mean_ms(span), calls(span)))
        .collect();
        m.extend([
            Metric::lower(
                "serve.parse_us",
                "us",
                profile.mean_ms("serve.parse") * 1e3,
                calls("serve.parse"),
            ),
            Metric::lower("serve.job_ms", "ms", all(|s| s.job_ms), seen.len()),
            Metric::lower(
                "serve.wire_ms",
                "ms",
                all(|s| s.rt_ms - s.done_ms),
                seen.len(),
            ),
            Metric::higher(
                "serve.dedup_ratio",
                "ratio",
                deduped as f64 / pairs.len().max(1) as f64,
                pairs.len(),
            ),
            Metric::lower(
                "engine.computes_per_job",
                "ratio",
                computes as f64 / jobs.max(1) as f64,
                jobs,
            ),
            Metric::lower(
                "cache.entry_kb",
                "KiB",
                usage.bytes as f64 / 1024.0 / usage.entries.max(1) as f64,
                usage.entries,
            ),
            Metric::higher(
                "cache.hit_ratio",
                "ratio",
                (counters.hits - counters0.hits) as f64 / lookups.max(1) as f64,
                lookups as usize,
            ),
            Metric::lower(
                "cache.quarantined",
                "count",
                counters.quarantined as f64,
                requests,
            ),
            Metric::lower(
                "cache.working_set_mb",
                "MB",
                usage.bytes as f64 / (1 << 20) as f64,
                usage.entries,
            ),
            Metric::lower("loadgen.lateness_ms", "ms", lateness_ms, requests),
            Metric::higher(
                "serve.req_per_s",
                "1/s",
                seen.len() as f64 / busy_s,
                seen.len(),
            ),
        ]);
        m
    } else {
        let (miss, hit, dedup) = (
            untraced(Some(Kind::Miss), reference_rt),
            untraced(Some(Kind::Hit), reference_rt),
            untraced(Some(Kind::Dedup), reference_rt),
        );
        vec![
            Metric::lower("serve_miss_ms_p50", "ms", median(&miss), miss.len()),
            Metric::lower("serve_miss_ms_p90", "ms", quantile(&miss, 0.9), miss.len()),
            Metric::lower("serve_hit_ms_p50", "ms", median(&hit), hit.len()),
            Metric::lower("serve_hit_ms_p90", "ms", quantile(&hit, 0.9), hit.len()),
            Metric::lower("serve_dedup_ms_p50", "ms", median(&dedup), dedup.len()),
        ]
    };
    Outcome {
        tally,
        pass_ms: untraced(None, reference_rt),
        setup_s,
        extra,
        digest: digest(&reference),
        profile,
        pass_kind: "serve.request",
        untraced_pass_ms: median(&untraced(None, |s, _| s.rt_ms)),
    }
}

/// Jobs the engine has answered, however it answered them.
fn jobs_done(engine: &SuiteEngine) -> usize {
    engine.lifetime_cache().total() + engine.lifetime_deduped()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_cold_seeds_are_fresh() {
        let mut cold = std::collections::HashSet::new();
        for r in 0..200 {
            let (k0, j0) = schedule(7, 2, r, 0);
            let (k1, j1) = schedule(7, 2, r, 1);
            assert_eq!((k0, j0), schedule(7, 2, r, 0));
            assert_eq!(k0, k1);
            match k0 {
                Kind::Hit => assert_eq!((j0.seed, j1.seed), (7, 7)),
                Kind::Dedup => {
                    assert_eq!(j0, j1);
                    assert!(cold.insert(j0.seed));
                }
                Kind::Miss => {
                    assert!(cold.insert(j0.seed) && cold.insert(j1.seed));
                    assert!(j0.seed != 7 && j1.seed != 7);
                }
            }
        }
        assert!((0..200).any(|r| schedule(7, 2, r, 0).0 == Kind::Dedup));
        assert!((0..200).all(|r| schedule(7, 1, r, 0).0 != Kind::Dedup));
    }

    #[test]
    fn pacer_spreads_the_accept_wait_over_the_period() {
        let pacer = Pacer::new(7, Instant::now() + Duration::from_secs(60));
        pacer.plan(0, Kind::Miss);
        let (go, first) = pacer.current();
        assert!(go && first.unwrap() <= Instant::now() + ACCEPT_POLL);
        let wake = Instant::now();
        let mut waits = Vec::new();
        for r in 1..200 {
            pacer.observe(wake);
            let planned = Instant::now();
            pacer.plan(r, Kind::Miss);
            let at = pacer.current().1.unwrap();
            assert!(at >= planned + LEAD);
            // Share of a period from `at` to the next wake-up.
            let periods = (at - wake).as_secs_f64() / ACCEPT_POLL.as_secs_f64();
            waits.push(periods.ceil() - periods);
        }
        for tenth in 0..10 {
            let n = waits
                .iter()
                .filter(|w| (**w * 10.0) as usize == tenth)
                .count();
            assert!(
                (15..=25).contains(&n),
                "tenth {tenth}: {n} of {}",
                waits.len()
            );
        }
    }
}
