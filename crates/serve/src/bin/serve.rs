//! The simulation daemon.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--idle-timeout-secs S]
//!       [--threads N] [--no-cache] [--cache-bytes N[k|m|g]] [--smoke]
//! ```
//!
//! Arguments follow [`isosceles_bench::cli`] (`serve --help` lists them).
//! Prints a `{"type":"listening","addr":...}` line to stdout once the
//! socket is bound (scripts parse it to discover ephemeral ports), then
//! serves until a `shutdown` request or SIGINT/SIGTERM, draining
//! in-flight jobs before exiting.
//!
//! `--smoke` binds an ephemeral port, runs one suite request, one
//! inline-config request, and a stats query against itself, validates
//! the responses, shuts down cleanly, and exits 0/1 — the self-check
//! `scripts/check.sh` runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use isos_serve::protocol::Response;
use isos_serve::{Server, ServerOptions};
use isosceles_bench::cli::Args;
use isosceles_bench::engine::EngineOptions;

/// Where `serve` listens without `--addr`.
const DEFAULT_ADDR: &str = "127.0.0.1:9377";

/// The usage text, the synopsis above plus one line per flag.
fn usage_text() -> String {
    let defaults = ServerOptions::default();
    format!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--idle-timeout-secs S]\n\
         \x20            [--threads N] [--no-cache] [--cache-bytes N[k|m|g]] [--smoke]\n\
         \n\
         --addr HOST:PORT       listen address (default {DEFAULT_ADDR}; port 0 picks one)\n\
         --workers N            worker threads simulating jobs, >= 1 (default {})\n\
         --idle-timeout-secs S  close connections silent for S seconds, >= 1\n\
         \x20                      (default {})\n\
         --threads N            engine worker threads (also ISOS_THREADS)\n\
         --no-cache             disable the result cache (also ISOS_NO_CACHE)\n\
         --cache-bytes N        bound the result cache, e.g. 512m (also ISOS_CACHE_BYTES)\n\
         --smoke                serve one suite, one inline-config and one stats\n\
         \x20                      request on an ephemeral port, check them, exit 0/1",
        defaults.workers,
        defaults.idle_timeout.as_secs(),
    )
}

fn main() {
    let mut args = Args::from_env(usage_text());
    let mut opts = ServerOptions {
        addr: DEFAULT_ADDR.to_string(),
        engine: EngineOptions {
            quiet: true,
            ..EngineOptions::from_env().unwrap_or_else(|e| args.fail(&e))
        },
        ..ServerOptions::default()
    };
    let mut smoke = false;
    args.each(|args, flag| {
        match flag {
            "--addr" => opts.addr = args.value()?,
            "--workers" => opts.workers = args.parse("an integer >= 1", |&n| n >= 1)?,
            "--idle-timeout-secs" => {
                let secs = args.parse("an integer >= 1", |&s| s >= 1)?;
                opts.idle_timeout = Duration::from_secs(secs);
            }
            "--smoke" => smoke = true,
            _ => return opts.engine.parse_flag(args, flag),
        }
        Ok(true)
    });

    if smoke {
        opts.addr = "127.0.0.1:0".to_string();
        std::process::exit(run_smoke(opts));
    }

    let addr = opts.addr.clone();
    let server = Server::bind(opts)
        .unwrap_or_else(|e| args.fail(&format!("--addr {addr}: bind failed: {e}")));
    println!("{}", Response::listening(&server.local_addr().to_string()));
    let _ = std::io::stdout().flush();

    install_signal_bridge(server.stop_flag());
    server.run();
    eprintln!("serve: drained and stopped");
}

/// Routes SIGINT/SIGTERM to the server's stop flag so `run()` drains
/// in-flight jobs instead of the process dying mid-write.
///
/// The handler may only make async-signal-safe calls, so it writes one
/// byte into a socket pair; a bridge thread blocks reading the other end
/// and calls `stop` when the byte arrives. Nothing polls, and an idle
/// server stops as soon as the signal lands. The bridge thread is not
/// joined: it lives until a signal or process exit.
#[cfg(unix)]
fn install_signal_bridge(stop: std::sync::Arc<dyn Fn() + Send + Sync>) {
    use std::io::Read;
    use std::os::fd::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// The write end of the bridge's socket pair (-1 before install).
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    extern "C" fn on_signal(_sig: i32) {
        let byte = 1u8;
        // SAFETY: `write` is async-signal-safe. `WAKE_FD` holds the write
        // end before the handler is installed, and that descriptor is
        // never closed; `byte` is a live one-byte buffer. A full buffer
        // fails the non-blocking write, which is fine: a byte is waiting.
        unsafe {
            write(WAKE_FD.load(Ordering::SeqCst), &byte, 1);
        }
    }
    // The platform libc is already linked by std; declaring `signal` and
    // `write` directly avoids depending on a libc crate the vendor tree
    // lacks.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    let (mut reader, writer) = UnixStream::pair().expect("socket pair for the signal bridge");
    writer
        .set_nonblocking(true)
        .expect("non-blocking signal bridge socket");
    // Ownership of the write end passes to the handler for the life of
    // the process.
    WAKE_FD.store(writer.into_raw_fd(), Ordering::SeqCst);
    // SAFETY: `on_signal` only loads an atomic and calls `write`, both
    // async-signal-safe, and `WAKE_FD` is set above.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        if reader.read_exact(&mut byte).is_ok() {
            stop();
        }
    });
}

#[cfg(not(unix))]
fn install_signal_bridge(_stop: std::sync::Arc<dyn Fn() + Send + Sync>) {}

/// One line out, one or more lines back (until `stop_at` matches a
/// response `type`). Returns the collected response lines.
fn roundtrip(addr: &str, request: &str, stop_at: &[&str]) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writer
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("recv: {e}"))?;
        let value = serde::json::parse(&line).map_err(|e| format!("bad response JSON: {e}"))?;
        let kind = value
            .field("type")
            .ok()
            .and_then(serde::json::Value::as_str)
            .ok_or("response without a type")?
            .to_string();
        lines.push(line);
        if kind == "error" {
            return Err(format!("server error: {}", lines.last().unwrap()));
        }
        if stop_at.contains(&kind.as_str()) {
            return Ok(lines);
        }
    }
    Err("connection closed before the final response".to_string())
}

/// The `--smoke` self-check. Returns the process exit code.
fn run_smoke(opts: ServerOptions) -> i32 {
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: bind failed: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let checks = || -> Result<(), String> {
        // 1. A suite request by name.
        let rows = roundtrip(
            &addr,
            r#"{"type":"run","workload":"M75","model":"isosceles"}"#,
            &["done"],
        )?;
        if rows.len() != 2 {
            return Err(format!("expected row + done, got {} lines", rows.len()));
        }
        let row = serde::json::parse(&rows[0]).map_err(|e| e.to_string())?;
        let cycles = row
            .field("metrics")
            .and_then(|m| m.field("total"))
            .and_then(|t| t.field("cycles"))
            .and_then(serde::json::Value::as_u64)
            .map_err(|e| format!("row without total cycles: {e}"))?;
        if cycles == 0 {
            return Err("suite run reported zero cycles".to_string());
        }

        // 2. An inline-config request (the paper default, relabeled).
        let config = serde::json::to_string(&isosceles::IsoscelesConfig::default());
        let request = format!(
            r#"{{"type":"run","workload":"M75","config":{{"label":"smoke-point","config":{config}}}}}"#
        );
        let rows = roundtrip(&addr, &request, &["done"])?;
        let row = serde::json::parse(&rows[0]).map_err(|e| e.to_string())?;
        let label = row
            .field("label")
            .ok()
            .and_then(serde::json::Value::as_str)
            .unwrap_or_default()
            .to_string();
        if label != "smoke-point" {
            return Err(format!("inline run echoed label `{label}`"));
        }

        // 3. Stats reflect the two requests.
        let stats = roundtrip(&addr, r#"{"type":"stats"}"#, &["stats"])?;
        let stats = serde::json::parse(&stats[0]).map_err(|e| e.to_string())?;
        let computes = stats
            .field("computes")
            .and_then(serde::json::Value::as_u64)
            .map_err(|e| format!("stats without computes: {e}"))?;
        let hits = stats
            .field("hits")
            .and_then(serde::json::Value::as_u64)
            .map_err(|e| format!("stats without hits: {e}"))?;
        // Both runs share one job key, so with a cold cache one compute
        // and one hit; with a warm cache zero computes and two hits.
        if computes + hits < 2 {
            return Err(format!(
                "stats did not account for both requests: computes={computes} hits={hits}"
            ));
        }
        Ok(())
    };
    let result = checks();

    // Clean shutdown either way.
    let bye = roundtrip(&addr, r#"{"type":"shutdown"}"#, &["bye"]);
    let _ = server_thread.join();

    match (result, bye) {
        (Ok(()), Ok(_)) => {
            eprintln!("smoke: ok");
            0
        }
        (Err(e), _) => {
            eprintln!("smoke: FAILED: {e}");
            1
        }
        (_, Err(e)) => {
            eprintln!("smoke: shutdown FAILED: {e}");
            1
        }
    }
}
