//! Multi-tenant simulation service for the ISOSceles reproduction.
//!
//! A long-running server on [`std::net::TcpListener`] speaking
//! newline-delimited JSON ([`protocol`]): clients request suite
//! workloads, inline DSE configuration points, or batched
//! streaming-inference scenarios (`stream`/`batch` request kinds,
//! reporting throughput and p50/p95/p99 tail latency), and a worker
//! pool
//! ([`dispatch`]) funnels every job through one shared
//! [`SuiteEngine`], so all connections benefit from — and contribute
//! to — the same persistent sharded cache and single-flight dedup
//! table. `N` concurrent identical untraced `run` jobs cost exactly one
//! simulation, no matter how many clients sent them; `stream` jobs
//! share only the cache, so identical ones in flight each simulate.
//!
//! The server is deliberately plain: a blocking `accept` loop (woken on
//! stop by a connection to itself), blocking connection sockets with
//! short read timeouts, one thread per connection, no async runtime.
//! The heavy lifting (scheduling, dedup, caching) lives in
//! `isosceles-bench`; this crate is the wire format and the lifecycle
//! (graceful drain on shutdown, idle-timeout for abandoned connections,
//! structured errors for malformed requests).
//!
//! Binaries: `serve` (the daemon, plus a self-checking `--smoke` mode
//! used by `scripts/check.sh`) and `isos-client` (one-shot queries,
//! matrix requests, stats).

#![warn(missing_docs)]

pub mod dispatch;
pub mod protocol;

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use serde::json::Value;

use dispatch::{JobOutcome, WorkerPool};
use protocol::{parse_request, JobSpec, Request, Response};

/// How the server is configured.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Close connections silent for this long.
    pub idle_timeout: Duration,
    /// Engine options (cache directory, byte bound, ...).
    pub engine: EngineOptions,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            idle_timeout: Duration::from_secs(300),
            engine: EngineOptions {
                quiet: true,
                ..EngineOptions::default()
            },
        }
    }
}

/// Shared state every connection handler sees.
struct Shared {
    engine: SuiteEngine,
    pool: WorkerPool,
    stop: AtomicBool,
    /// Where a connection reaches the listener, for the stop wake-up.
    wake_addr: SocketAddr,
    idle_timeout: Duration,
    started: Instant,
    connections: AtomicU64,
    /// Connection threads currently running.
    open_connections: AtomicU64,
}

impl Shared {
    /// Sets the stop flag, then wakes the accept loop, which is blocked
    /// in `accept`, with a throwaway connection. Errors are ignored: a
    /// failed connect means the listener is gone or its backlog is full,
    /// and a full backlog wakes the loop anyway.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// Decrements `open_connections` when a connection thread ends, however
/// it ends.
struct OpenConnection<'a>(&'a AtomicU64);

impl<'a> OpenConnection<'a> {
    fn new(open: &'a AtomicU64) -> Self {
        open.fetch_add(1, Ordering::Relaxed);
        Self(open)
    }
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The server: bind, then [`run`](Server::run) until a shutdown request
/// or the stop flag.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Read timeout of connection sockets: how often an idle connection
/// checks the stop flag and its idle deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest [`Shared::request_stop`] waits to connect to the listener.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent error
/// does not spin the accept loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// The address a connection to a listener bound on `addr` should use:
/// loopback of the same family when the bound IP is unspecified.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Server {
    /// Binds the listen socket and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn bind(opts: ServerOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let engine = SuiteEngine::new(opts.engine);
        let pool = WorkerPool::new(engine.clone(), opts.workers);
        Ok(Self {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                engine,
                pool,
                stop: AtomicBool::new(false),
                wake_addr: wake_addr(local_addr),
                idle_timeout: opts.idle_timeout,
                started: Instant::now(),
                connections: AtomicU64::new(0),
                open_connections: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that makes [`run`](Server::run) drain and return when
    /// called, also before `run` starts — wire it to a signal handler
    /// for graceful SIGTERM/ctrl-c shutdown. Calling it wakes the
    /// blocked accept loop with a connection to the server's own
    /// address.
    pub fn stop_flag(&self) -> Arc<dyn Fn() + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || shared.request_stop())
    }

    /// The engine every connection shares (for smoke checks and tests).
    pub fn engine(&self) -> &SuiteEngine {
        &self.shared.engine
    }

    /// Accepts connections until a `shutdown` request arrives or the
    /// stop flag is set, then drains: connection threads finish their
    /// in-flight request, workers finish queued jobs, and everything is
    /// joined before returning.
    pub fn run(self) {
        let mut handles = Vec::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            let accepted = self.listener.accept();
            // A connection accepted once stop is set, the wake-up
            // included, is dropped unserved.
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    reap_finished(&mut handles);
                    let shared = Arc::clone(&self.shared);
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared)
                    }));
                }
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
        // Drain: connections observe the stop flag at their next read
        // timeout and close after finishing the request in hand.
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
    }
}

/// Joins and drops the handles of connection threads that have exited.
/// A finished thread's stack stays mapped until it is joined, so without
/// this a long-running server's memory grows with connections served.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(handles)
        .into_iter()
        .partition(|h| h.is_finished());
    *handles = live;
    for handle in finished {
        let _ = handle.join();
    }
}

/// Why a blocking `read_line` round ended without a full line.
enum ReadStatus {
    /// A full line was read.
    Line,
    /// The read timed out with no (or only partial) data.
    Timeout,
    /// The peer closed the connection or it broke.
    Closed,
}

/// One `read_line` attempt against a stream with a short read timeout.
/// Partial lines accumulate in `buf` across timeouts.
fn read_line_step(reader: &mut BufReader<TcpStream>, buf: &mut String) -> ReadStatus {
    match reader.read_line(buf) {
        Ok(0) => ReadStatus::Closed,
        Ok(_) if buf.ends_with('\n') => ReadStatus::Line,
        // EOF in the middle of an unterminated final line.
        Ok(_) => ReadStatus::Closed,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            ReadStatus::Timeout
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => ReadStatus::Timeout,
        Err(_) => ReadStatus::Closed,
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .is_ok()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _open = OpenConnection::new(&shared.open_connections);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let mut last_activity = Instant::now();

    loop {
        match read_line_step(&mut reader, &mut buf) {
            ReadStatus::Line => {
                let line = std::mem::take(&mut buf);
                let line = line.trim();
                last_activity = Instant::now();
                if line.is_empty() {
                    continue;
                }
                match parse_request(line) {
                    Err(message) => {
                        if !send_line(&mut writer, &Response::error(&message, None)) {
                            return;
                        }
                    }
                    Ok(Request::Ping) => {
                        if !send_line(&mut writer, &Response::pong()) {
                            return;
                        }
                    }
                    Ok(Request::Stats) => {
                        if !send_line(&mut writer, &stats_line(shared)) {
                            return;
                        }
                    }
                    Ok(Request::Shutdown) => {
                        shared.request_stop();
                        let _ = send_line(&mut writer, &Response::bye("shutdown"));
                        return;
                    }
                    Ok(Request::Run(spec)) => {
                        if !serve_jobs(&mut writer, shared, vec![*spec]) {
                            return;
                        }
                    }
                    Ok(Request::Matrix(jobs)) | Ok(Request::Batch(jobs)) => {
                        if !serve_jobs(&mut writer, shared, jobs) {
                            return;
                        }
                    }
                }
            }
            ReadStatus::Timeout => {
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = send_line(&mut writer, &Response::bye("shutdown"));
                    return;
                }
                if last_activity.elapsed() >= shared.idle_timeout {
                    let _ = send_line(&mut writer, &Response::bye("idle-timeout"));
                    return;
                }
            }
            ReadStatus::Closed => return,
        }
    }
}

/// Submits `jobs` to the pool and streams rows back in completion
/// order, followed by a `done` summary. Returns `false` when the
/// connection broke and the handler should stop.
fn serve_jobs(writer: &mut TcpStream, shared: &Shared, jobs: Vec<JobSpec>) -> bool {
    let started = Instant::now();
    let (reply_tx, reply_rx) = unbounded::<JobOutcome>();
    let specs: Vec<JobSpec> = jobs;
    let mut submitted = 0usize;
    for (index, spec) in specs.iter().enumerate() {
        if shared.pool.submit(index, spec.clone(), reply_tx.clone()) {
            submitted += 1;
        } else {
            // Pool already shut down; report instead of hanging.
            if !send_line(
                writer,
                &Response::error("server is shutting down", Some(index)),
            ) {
                return false;
            }
        }
    }
    drop(reply_tx);

    let (mut hits, mut misses, mut deduped, mut errors) = (0usize, 0usize, 0usize, 0usize);
    let mut alive = true;
    for _ in 0..submitted {
        // recv cannot block forever: every submitted job sends exactly
        // one outcome, even on worker panic.
        let Ok(outcome) = reply_rx.recv() else { break };
        let line = match outcome.result {
            Ok(row) => {
                if row.cache_hit {
                    hits += 1;
                } else if row.deduped {
                    deduped += 1;
                } else {
                    misses += 1;
                }
                row.line
            }
            Err(message) => {
                errors += 1;
                Response::error(&message, Some(outcome.index))
            }
        };
        // Keep draining outcomes even if the peer is gone, so workers
        // never block on a dead connection's channel (it is unbounded,
        // but the counters should still be consistent).
        if alive && !send_line(writer, &line) {
            alive = false;
        }
    }
    let jobs_done = hits + misses + deduped + errors;
    alive
        && send_line(
            writer,
            &Response::done(
                jobs_done,
                hits,
                misses,
                deduped,
                started.elapsed().as_secs_f64() * 1e3,
            ),
        )
}

/// Builds the `stats` response from the engine, store, and pool.
fn stats_line(shared: &Shared) -> String {
    let cache = shared.engine.lifetime_cache();
    let mut pairs: Vec<(&str, Value)> = vec![
        (
            "uptime_millis",
            Value::F64(shared.started.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "connections",
            Value::U64(shared.connections.load(Ordering::Relaxed)),
        ),
        ("hits", Value::U64(cache.hits as u64)),
        ("misses", Value::U64(cache.misses as u64)),
        (
            "deduped",
            Value::U64(shared.engine.lifetime_deduped() as u64),
        ),
        (
            "computes",
            Value::U64(shared.engine.lifetime_computes() as u64),
        ),
        ("in_flight", Value::U64(shared.engine.inflight_len() as u64)),
        (
            "open_connections",
            Value::U64(shared.open_connections.load(Ordering::Relaxed)),
        ),
        ("queued_jobs", Value::U64(shared.pool.queued())),
    ];
    if let Some(store) = shared.engine.cache_store() {
        let usage = store.usage();
        let counters = store.counters();
        pairs.push((
            "store",
            Value::Obj(vec![
                (
                    "root".to_string(),
                    Value::Str(store.root().display().to_string()),
                ),
                (
                    "byte_limit".to_string(),
                    match store.byte_limit() {
                        Some(b) => Value::U64(b),
                        None => Value::Null,
                    },
                ),
                ("entries".to_string(), Value::U64(usage.entries as u64)),
                ("bytes".to_string(), Value::U64(usage.bytes)),
                (
                    "counters".to_string(),
                    serde::Serialize::to_value(&counters),
                ),
            ]),
        ));
    }
    let workers = shared.pool.worker_stats();
    pairs.push((
        "workers",
        Value::Arr(
            workers
                .iter()
                .map(|w| {
                    Value::Obj(vec![
                        ("jobs".to_string(), Value::U64(w.jobs)),
                        ("busy_millis".to_string(), Value::F64(w.busy_millis)),
                    ])
                })
                .collect(),
        ),
    ));
    Response::stats(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaping_drops_exited_connection_threads() {
        let mut handles: Vec<JoinHandle<()>> = (0..4).map(|_| std::thread::spawn(|| {})).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handles.iter().all(JoinHandle::is_finished) {
            assert!(Instant::now() < deadline, "short threads never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert!(handles.is_empty());
    }

    #[test]
    fn reaping_keeps_live_connection_threads() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let mut handles = vec![std::thread::spawn(move || {
            let _ = rx.recv();
        })];
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "a blocked thread is still live");
        drop(tx);
        handles.pop().unwrap().join().unwrap();
    }
}
