//! End-to-end tests of the simulation service over real TCP sockets:
//! single-flight dedup across concurrent clients, matrix streaming,
//! inline-config equivalence, malformed-request recovery, idle
//! timeouts, prompt accepts and stops, and graceful SIGTERM drain of
//! the `serve` binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use isos_serve::{Server, ServerOptions};
use isosceles_bench::engine::EngineOptions;
use serde::json::Value;
use serde::Serialize;

fn scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU32 = AtomicU32::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("isos-serve-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A bound server on an ephemeral port with a scratch cache.
fn test_server(tag: &str, workers: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = bind_server(tag, "127.0.0.1:0", workers);
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A server bound on `addr` with a scratch cache, not yet running.
fn bind_server(tag: &str, addr: &str, workers: usize) -> Server {
    Server::bind(ServerOptions {
        addr: addr.to_string(),
        workers,
        idle_timeout: Duration::from_secs(60),
        engine: EngineOptions {
            threads: 2,
            use_cache: true,
            cache_dir: scratch_dir(tag),
            quiet: true,
            ..EngineOptions::default()
        },
    })
    .expect("bind")
}

/// Asserts that the server thread `handle` returns within 2 s.
fn returns_promptly(handle: std::thread::JoinHandle<()>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "run() did not return within 2 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("server thread");
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Self {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "connection closed mid-response");
        serde::json::parse(line.trim()).expect("response JSON")
    }

    /// Sends a request and collects responses through the first line
    /// whose type is in `terminal`.
    fn roundtrip(&mut self, request: &str, terminal: &[&str]) -> Vec<Value> {
        self.send(request);
        let mut out = Vec::new();
        loop {
            let v = self.recv();
            let kind = kind_of(&v);
            out.push(v);
            if terminal.contains(&kind.as_str()) {
                return out;
            }
        }
    }
}

fn kind_of(v: &Value) -> String {
    v.field("type")
        .expect("typed response")
        .as_str()
        .expect("string type")
        .to_string()
}

fn u64_field(v: &Value, name: &str) -> u64 {
    v.field(name)
        .unwrap_or_else(|e| panic!("field {name}: {e}"))
        .as_u64()
        .unwrap_or_else(|e| panic!("field {name}: {e}"))
}

/// Polls `stats` on `client` until the burst's connections have closed,
/// so the asking connection is the only one open; returns that reply.
fn settled_stats(client: &mut Client) -> Value {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = client
            .roundtrip(r#"{"type":"stats"}"#, &["stats"])
            .remove(0);
        if u64_field(&stats, "open_connections") == 1 || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn eight_concurrent_cold_clients_cost_exactly_one_simulation() {
    let (addr, handle) = test_server("dedup", 8);
    const CLIENTS: usize = 8;
    let request = r#"{"type":"run","workload":"G58","model":"isosceles","seed":99}"#;

    // A quiet server: the stats connection is the only one open and no
    // job waits for a worker.
    let mut client = Client::connect(addr);
    let stats = client
        .roundtrip(r#"{"type":"stats"}"#, &["stats"])
        .remove(0);
    assert_eq!(
        u64_field(&stats, "open_connections"),
        1,
        "{}",
        stats.render()
    );
    assert_eq!(u64_field(&stats, "queued_jobs"), 0, "{}", stats.render());

    let barrier = std::sync::Barrier::new(CLIENTS);
    let rows: Vec<Value> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = &barrier;
                s.spawn(move |_| {
                    let mut client = Client::connect(addr);
                    barrier.wait();
                    client.roundtrip(request, &["done"])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let mut lines = h.join().expect("client thread");
                assert_eq!(kind_of(&lines[0]), "row");
                assert_eq!(kind_of(&lines[1]), "done");
                lines.swap_remove(0)
            })
            .collect()
    })
    .expect("client scope");

    // Bit-identical metrics on every connection: the serialized JSON
    // trees must match exactly, not just approximately.
    let reference = rows[0].field("metrics").unwrap().render();
    assert!(!reference.is_empty());
    for row in &rows {
        assert_eq!(row.field("metrics").unwrap().render(), reference);
        assert_eq!(u64_field(row, "seed"), 99);
    }

    // Exactly one simulation happened; the other seven clients were
    // deduped against it or hit the cache it populated. Their
    // connections are closed and their jobs all left the queue.
    let stats = settled_stats(&mut client);
    assert_eq!(
        u64_field(&stats, "open_connections"),
        1,
        "{}",
        stats.render()
    );
    assert_eq!(u64_field(&stats, "queued_jobs"), 0, "{}", stats.render());
    assert_eq!(u64_field(&stats, "computes"), 1, "{}", stats.render());
    assert_eq!(
        u64_field(&stats, "hits") + u64_field(&stats, "deduped") + u64_field(&stats, "misses"),
        CLIENTS as u64,
        "{}",
        stats.render()
    );
    assert_eq!(u64_field(&stats, "misses"), 1);
    assert_eq!(u64_field(&stats, "in_flight"), 0);

    // A warm repeat is a pure cache hit.
    let row = client.roundtrip(request, &["done"]).remove(0);
    assert!(row.field("cache_hit").unwrap().as_bool().unwrap());
    assert_eq!(row.field("metrics").unwrap().render(), reference);

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn new_connections_do_not_wait_for_an_accept_poll() {
    let (addr, handle) = test_server("accept", 1);
    let started = Instant::now();
    for _ in 0..40 {
        let mut client = Client::connect(addr);
        let pong = client.roundtrip(r#"{"type":"ping"}"#, &["pong"]).remove(0);
        assert_eq!(kind_of(&pong), "pong");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "40 pings on new connections took {elapsed:?}"
    );

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn stop_flag_before_run_returns_promptly() {
    let server = bind_server("stop-early", "127.0.0.1:0", 1);
    (server.stop_flag())();
    returns_promptly(std::thread::spawn(move || server.run()));
}

#[test]
fn stop_flag_wakes_a_server_bound_on_the_unspecified_address() {
    let server = bind_server("stop-any", "0.0.0.0:0", 1);
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    // Give run() time to block in accept (the stop must land either
    // way); no client ever connects.
    std::thread::sleep(Duration::from_millis(50));
    stop();
    returns_promptly(handle);
}

#[test]
fn shutdown_request_returns_promptly() {
    let (addr, handle) = test_server("shutdown", 1);
    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    drop(client);
    returns_promptly(handle);
}

#[test]
fn matrix_streams_every_row_and_a_done_summary() {
    let (addr, handle) = test_server("matrix", 4);
    let mut client = Client::connect(addr);
    let lines = client.roundtrip(
        r#"{"type":"matrix","workloads":["G58","M75"],"models":["isosceles","sparten"]}"#,
        &["done"],
    );
    assert_eq!(lines.len(), 5, "4 rows + done");
    let mut indexes: Vec<u64> = lines[..4]
        .iter()
        .map(|row| {
            assert_eq!(kind_of(row), "row");
            u64_field(row, "index")
        })
        .collect();
    indexes.sort_unstable();
    assert_eq!(indexes, vec![0, 1, 2, 3]);
    let done = &lines[4];
    assert_eq!(u64_field(done, "jobs"), 4);
    assert_eq!(
        u64_field(done, "hits") + u64_field(done, "misses") + u64_field(done, "deduped"),
        4
    );

    // Row fields carry the right workload/model pairing per index:
    // index = workload-major, model-minor.
    for row in &lines[..4] {
        let index = u64_field(row, "index");
        let workload = row.field("workload").unwrap().as_str().unwrap().to_string();
        let model = row.field("model").unwrap().as_str().unwrap().to_string();
        assert_eq!(workload, ["G58", "G58", "M75", "M75"][index as usize]);
        assert_eq!(
            model,
            ["isosceles", "sparten", "isosceles", "sparten"][index as usize]
        );
    }

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let (addr, handle) = test_server("malformed", 2);
    let mut client = Client::connect(addr);

    let err = client.roundtrip("this is not json", &["error"]).remove(0);
    assert!(err
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("malformed"));

    // Job-level failures come back as an error row followed by `done`;
    // read through `done` so the stream stays aligned.
    let err = client
        .roundtrip(
            r#"{"type":"run","workload":"NOPE","model":"isosceles"}"#,
            &["done"],
        )
        .remove(0);
    assert_eq!(kind_of(&err), "error");
    assert!(err
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown workload"));

    let err = client
        .roundtrip(
            r#"{"type":"run","workload":"G58","model":"eyeriss"}"#,
            &["done"],
        )
        .remove(0);
    assert_eq!(kind_of(&err), "error");
    assert!(err
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown model"));

    // Same connection still works.
    let pong = client.roundtrip(r#"{"type":"ping"}"#, &["pong"]).remove(0);
    assert_eq!(kind_of(&pong), "pong");

    // Nesting far past the parser's depth cap is an ordinary malformed
    // request, not a stack overflow that takes the server down.
    let err = client.roundtrip(&"[".repeat(100_000), &["error"]).remove(0);
    let message = err.field("message").unwrap().as_str().unwrap();
    assert!(message.contains("malformed"), "{message}");
    assert!(message.contains("nesting"), "{message}");
    let lines = client.roundtrip(
        r#"{"type":"run","workload":"G58","model":"isosceles"}"#,
        &["done"],
    );
    assert_eq!(kind_of(&lines[0]), "row");

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn unknown_job_errors_still_end_with_done_inside_a_matrix() {
    let (addr, handle) = test_server("mixed", 2);
    let mut client = Client::connect(addr);
    let lines = client.roundtrip(
        r#"{"type":"matrix","workloads":["G58","NOPE"],"models":["isosceles"]}"#,
        &["done"],
    );
    assert_eq!(lines.len(), 3, "row + error + done");
    let kinds: Vec<String> = lines.iter().map(kind_of).collect();
    assert!(kinds.contains(&"row".to_string()));
    assert!(kinds.contains(&"error".to_string()));
    assert_eq!(kinds.last().unwrap(), "done");
    let error = lines.iter().find(|l| kind_of(l) == "error").unwrap();
    assert_eq!(u64_field(error, "index"), 1, "second workload, only model");

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn inline_config_run_matches_a_direct_simulation() {
    use isosceles::accel::Accelerator;

    let (addr, handle) = test_server("inline", 2);
    let config = isosceles::IsoscelesConfig {
        lanes: 32,
        ..isosceles::IsoscelesConfig::default()
    };
    let seed = 5u64;
    let workload = isos_nn::models::suite_workload("G58", seed);
    let expected = config.simulate(&workload.network, seed).to_value().render();

    let mut client = Client::connect(addr);
    let request = format!(
        r#"{{"type":"run","workload":"G58","config":{{"label":"l32","config":{}}},"seed":{seed}}}"#,
        serde::json::to_string(&config)
    );
    let row = client.roundtrip(&request, &["done"]).remove(0);
    assert_eq!(kind_of(&row), "row");
    assert_eq!(row.field("label").unwrap().as_str().unwrap(), "l32");
    assert_eq!(row.field("metrics").unwrap().render(), expected);

    // The same point again is served from the cache under the config's
    // own cache key.
    let row = client.roundtrip(&request, &["done"]).remove(0);
    assert!(row.field("cache_hit").unwrap().as_bool().unwrap());
    assert_eq!(row.field("metrics").unwrap().render(), expected);

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn traced_runs_attach_stall_rows_with_identical_metrics() {
    let (addr, handle) = test_server("trace", 2);
    let mut client = Client::connect(addr);

    let plain = client
        .roundtrip(
            r#"{"type":"run","workload":"G58","model":"isosceles"}"#,
            &["done"],
        )
        .remove(0);
    let traced = client
        .roundtrip(
            r#"{"type":"run","workload":"G58","model":"isosceles","trace":true}"#,
            &["done"],
        )
        .remove(0);

    assert_eq!(
        traced.field("metrics").unwrap().render(),
        plain.field("metrics").unwrap().render(),
        "traced metrics are bit-identical to untraced ones"
    );
    let stalls = traced.field("stalls").unwrap().as_arr().unwrap();
    assert!(!stalls.is_empty(), "traced run reports per-unit breakdowns");
    for unit in stalls {
        assert!(unit.field("unit").unwrap().as_str().is_some());
        assert!(unit.field("busy").unwrap().as_f64().is_ok());
        assert!(unit.field("merge_bound").unwrap().as_f64().is_ok());
    }
    assert!(plain.field("stalls").is_err(), "untraced rows omit stalls");

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn stream_requests_report_tail_latency_and_replay_from_the_cache() {
    let (addr, handle) = test_server("stream", 2);
    let mut client = Client::connect(addr);

    let request = r#"{"type":"stream","workload":"G58","model":"isosceles","requests":6,"batch":2,"arrival":"poisson:50000","seed":11}"#;
    let row = client.roundtrip(request, &["done"]).remove(0);
    assert_eq!(kind_of(&row), "row");
    let metrics = row.field("metrics").unwrap();
    assert_eq!(u64_field(metrics, "requests"), 6);
    assert_eq!(u64_field(metrics, "batch"), 2);
    let (p50, p95, p99) = (
        u64_field(metrics, "p50_cycles"),
        u64_field(metrics, "p95_cycles"),
        u64_field(metrics, "p99_cycles"),
    );
    assert!(p50 <= p95 && p95 <= p99 && p50 > 0);
    assert!(
        metrics
            .field("throughput_imgs_per_sec")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    // Server-time conservation survives serialization.
    assert_eq!(
        u64_field(metrics, "busy_cycles")
            + u64_field(metrics, "idle_cycles")
            + u64_field(metrics, "formation_cycles"),
        u64_field(metrics, "cycles")
    );

    // The identical scenario replays bit-identically from the cache.
    let replay = client.roundtrip(request, &["done"]).remove(0);
    assert!(replay.field("cache_hit").unwrap().as_bool().unwrap());
    assert_eq!(replay.field("metrics").unwrap().render(), metrics.render());

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn batch_requests_mix_kinds_and_dedup_identical_jobs() {
    let (addr, handle) = test_server("batch", 4);
    let mut client = Client::connect(addr);

    // Two identical run jobs plus one stream job in a single request:
    // the duplicates must cost one simulation (single-flight dedup or a
    // cache hit, depending on timing), never two.
    let lines = client.roundtrip(
        concat!(
            r#"{"type":"batch","jobs":["#,
            r#"{"workload":"G58","model":"isosceles","seed":42},"#,
            r#"{"workload":"G58","model":"isosceles","seed":42},"#,
            r#"{"type":"stream","workload":"G58","model":"isosceles","requests":4,"batch":2,"seed":42}"#,
            r#"]}"#
        ),
        &["done"],
    );
    assert_eq!(lines.len(), 4, "3 rows + done");
    let done = lines.last().unwrap();
    assert_eq!(u64_field(done, "jobs"), 3);
    assert!(
        u64_field(done, "hits") + u64_field(done, "deduped") >= 1,
        "duplicate run jobs must dedup: {}",
        done.render()
    );
    let rows: Vec<&Value> = lines[..3].iter().collect();
    let stream_rows: Vec<&&Value> = rows
        .iter()
        .filter(|r| r.field("metrics").unwrap().field("p99_cycles").is_ok())
        .collect();
    assert_eq!(stream_rows.len(), 1, "exactly one stream row");
    let run_rows: Vec<&&Value> = rows
        .iter()
        .filter(|r| r.field("metrics").unwrap().field("p99_cycles").is_err())
        .collect();
    assert_eq!(run_rows.len(), 2);
    assert_eq!(
        run_rows[0].field("metrics").unwrap().render(),
        run_rows[1].field("metrics").unwrap().render(),
        "deduped duplicates are bit-identical"
    );

    // The engine computed at most one single-inference job for the two
    // duplicates (the stream job simulates its own requests).
    let stats = client
        .roundtrip(r#"{"type":"stats"}"#, &["stats"])
        .remove(0);
    assert_eq!(u64_field(&stats, "misses"), 1, "{}", stats.render());

    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

/// The real `isos-client` binary with `--stream`: rows print to stdout
/// as NDJSON and carry the latency summary.
#[test]
fn isos_client_streams_against_a_live_server() {
    use std::process::Command;

    let (addr, handle) = test_server("client-stream", 2);
    let output = Command::new(env!("CARGO_BIN_EXE_isos-client"))
        .args([
            "--addr",
            &addr.to_string(),
            "--net",
            "G58",
            "--model",
            "isosceles",
            "--stream",
            "--requests",
            "4",
            "--batch",
            "2",
            "--policy",
            "waitfull",
        ])
        .output()
        .expect("run isos-client");
    assert!(
        output.status.success(),
        "isos-client failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| serde::json::parse(l).expect("NDJSON line"))
        .collect();
    assert_eq!(lines.len(), 2, "row + done: {stdout}");
    assert_eq!(kind_of(&lines[0]), "row");
    let metrics = lines[0].field("metrics").unwrap();
    assert_eq!(u64_field(metrics, "requests"), 4);
    assert!(u64_field(metrics, "p99_cycles") >= u64_field(metrics, "p50_cycles"));
    assert_eq!(kind_of(&lines[1]), "done");
    assert_eq!(u64_field(&lines[1], "jobs"), 1);

    // Multiple workloads ride as one batch request.
    let output = Command::new(env!("CARGO_BIN_EXE_isos-client"))
        .args([
            "--addr",
            &addr.to_string(),
            "--net",
            "G58,M75",
            "--model",
            "isosceles",
            "--stream",
            "--requests",
            "2",
        ])
        .output()
        .expect("run isos-client");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| serde::json::parse(l).expect("NDJSON line"))
        .collect();
    assert_eq!(lines.len(), 3, "2 rows + done: {stdout}");
    assert_eq!(u64_field(lines.last().unwrap(), "jobs"), 2);

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

#[test]
fn idle_connections_are_closed_with_a_bye() {
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        engine: EngineOptions {
            threads: 1,
            use_cache: false,
            cache_dir: scratch_dir("idle"),
            quiet: true,
            ..EngineOptions::default()
        },
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr);
    // Say nothing; the server must hang up with an idle-timeout bye.
    let bye = client.recv();
    assert_eq!(kind_of(&bye), "bye");
    assert_eq!(
        bye.field("reason").unwrap().as_str().unwrap(),
        "idle-timeout"
    );

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"type":"shutdown"}"#, &["bye"]);
    handle.join().expect("server thread");
}

/// Starts the real `serve` binary on an ephemeral port; returns the
/// child and the address from its listening line.
#[cfg(unix)]
fn spawn_serve(cache: &std::path::Path) -> (std::process::Child, String) {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--threads", "2"])
        .env("ISOS_CACHE_DIR", cache)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let listening = serde::json::parse(line.trim()).expect("listening JSON");
    assert_eq!(kind_of(&listening), "listening");
    let addr = listening.field("addr").unwrap().as_str().unwrap();
    (child, addr.to_string())
}

#[cfg(unix)]
fn sigterm(child: &std::process::Child) {
    let status = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM");
    assert!(status.success());
}

/// SIGTERM on the real `serve` binary: the in-flight request completes
/// and the process exits cleanly instead of dying mid-write; an idle
/// server exits within a second.
#[test]
#[cfg(unix)]
fn sigterm_drains_the_serve_binary() {
    let cache = scratch_dir("sigterm");
    let (mut child, addr) = spawn_serve(&cache);

    // Park an in-flight request, then deliver SIGTERM while the
    // simulation runs.
    let mut client = Client::connect(addr.parse().expect("addr"));
    client.send(r#"{"type":"run","workload":"G58","model":"isosceles"}"#);
    // Give the handler a beat to pick the request up, so the stop flag
    // cannot win the race against a line already on the wire.
    std::thread::sleep(Duration::from_millis(150));
    sigterm(&child);

    // The request still completes: a row and a done line arrive.
    let row = client.recv();
    assert_eq!(kind_of(&row), "row");
    let done = client.recv();
    assert_eq!(kind_of(&done), "done");

    let status = child.wait().expect("serve exit status");
    assert!(status.success(), "serve exited with {status:?}");

    // Idle: nothing in flight, so the signal alone must end the process
    // promptly.
    let (mut child, _) = spawn_serve(&cache);
    sigterm(&child);
    let deadline = Instant::now() + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("idle serve still running 1 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "idle serve exited with {status:?}");
    let _ = std::fs::remove_dir_all(cache);
}

/// Runs `exe` with `args` and waits at most 10 s for it to exit. A
/// process still running then (a server that bound and is serving) is
/// killed and fails the test.
fn exits_within_10s(exe: &str, args: &[&str]) -> std::process::Output {
    use std::process::{Command, Stdio};

    let mut child = Command::new(exe)
        .args(args)
        .env("ISOS_CACHE_DIR", scratch_dir("cli"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let out = child.wait_with_output().expect("killed child output");
            panic!(
                "{args:?} still running after 10 s; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("child output")
}

/// `--help` and bad flags end both binaries before `serve` binds or
/// `isos-client` connects: help on stdout with exit 0, an error naming
/// the flag plus the usage on stderr with exit 2.
#[test]
fn help_and_bad_flags_exit_without_serving() {
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_serve"), "serve"),
        (env!("CARGO_BIN_EXE_isos-client"), "isos-client"),
    ] {
        let out = exits_within_10s(exe, &["--help", "--addr", "127.0.0.1:0"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with(&format!("usage: {name}")), "{text}");
        assert!(out.stderr.is_empty(), "{name} --help wrote to stderr");
    }

    let serve = env!("CARGO_BIN_EXE_serve");
    let client = env!("CARGO_BIN_EXE_isos-client");
    for (exe, args, error) in [
        (serve, &["--bogus"][..], "unknown flag --bogus"),
        (serve, &["--wrokers", "4"], "unknown flag --wrokers"),
        (
            serve,
            &["--workers", "0"],
            "--workers needs an integer >= 1",
        ),
        (
            serve,
            &["--idle-timeout-secs=x"],
            "--idle-timeout-secs needs",
        ),
        (serve, &["--threads"], "--threads needs a value"),
        (serve, &["--smoke=1"], "--smoke takes no value"),
        (
            client,
            &["--net", "G58", "--seed", "abc"],
            "--seed needs an integer",
        ),
        (client, &["--requests="], "--requests needs an integer"),
        (client, &["--ping=1"], "--ping takes no value"),
        (client, &["--net", "G58"], "pass --model NAMES"),
    ] {
        let mut full = vec!["--addr", "127.0.0.1:0"];
        full.extend_from_slice(args);
        let out = exits_within_10s(exe, &full);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with(&format!("error: {error}")),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage: "), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
