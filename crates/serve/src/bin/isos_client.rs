//! Command-line client for the `serve` daemon.
//!
//! ```text
//! isos-client --addr HOST:PORT --ping
//! isos-client --addr HOST:PORT --stats
//! isos-client --addr HOST:PORT --shutdown
//! isos-client --addr HOST:PORT --net R96[,G58,...] --model isosceles[,sparten,...]
//!             [--seed N] [--trace]
//! isos-client --addr HOST:PORT --net R96 --config point.json [--seed N]
//! isos-client --addr HOST:PORT --net R96 --arch arch.json [--seed N]
//! isos-client --addr HOST:PORT --net R81 --model isosceles --stream
//!             [--requests N] [--batch B] [--arrival burst|periodic:N|poisson:F]
//!             [--policy greedy|waitfull]
//! ```
//!
//! Emits the server's NDJSON responses verbatim on stdout, one line per
//! row, so output pipes straight into `jq` or a results file. Exits 1
//! if any response is an `error`, 2 on usage or connection problems.
//! Arguments follow [`isosceles_bench::cli`].
//!
//! `--config FILE` sends the file's JSON as an inline configuration: a
//! bare `IsoscelesConfig` object or a labeled one
//! (`{"label":...,"config":{...}}`).
//!
//! `--arch FILE` sends a declarative architecture description inline
//! (the `configs/arch/*.json` schema). The server validates and lowers
//! it; schema violations come back as structured `error` lines rather
//! than a dropped connection. Every point `dse` evaluates carries such a
//! description as its `desc`, so a frontier point re-runs with
//! `jq '.evaluated[0].desc' dse-R96.json > point.json` and
//! `--arch point.json`.
//!
//! `--stream` turns each scenario into a batched streaming-inference
//! run: rows report throughput and p50/p95/p99 tail latency. With
//! several `--net`/`--model` values, the scenarios travel as one
//! `batch` request. The server does not dedup stream jobs in flight:
//! identical scenarios each simulate unless one already cached its row.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use isosceles_bench::cli;
use serde::json::Value;

/// The usage text.
const USAGE: &str = "usage: isos-client [--addr HOST:PORT] (--ping | --stats | --shutdown |\n\
\x20                  --net IDS [--model NAMES | --config FILE | --arch FILE] [--seed N]\n\
\x20                  [--trace] [--stream [--requests N] [--batch B] [--arrival A] [--policy P]])";

#[derive(Default)]
struct Args {
    addr: String,
    nets: Vec<String>,
    models: Vec<String>,
    config: Option<String>,
    arch: Option<String>,
    seed: Option<u64>,
    trace: bool,
    ping: bool,
    stats: bool,
    shutdown: bool,
    stream: bool,
    requests: Option<u64>,
    batch: Option<u64>,
    arrival: Option<String>,
    policy: Option<String>,
}

fn parse_args(cli: &mut cli::Args) -> Args {
    let mut args = Args {
        addr: "127.0.0.1:9377".to_string(),
        ..Args::default()
    };
    let list = |v: String| v.split(',').map(|s| s.trim().to_string()).collect();
    cli.each(|cli, flag| {
        match flag {
            "--addr" => args.addr = cli.value()?,
            "--net" => args.nets = list(cli.value()?),
            "--model" => args.models = list(cli.value()?),
            "--config" => args.config = Some(cli.value()?),
            "--arch" => args.arch = Some(cli.value()?),
            "--seed" => args.seed = Some(cli.parse("an integer", |_| true)?),
            "--requests" => args.requests = Some(cli.parse("an integer", |_| true)?),
            "--batch" => args.batch = Some(cli.parse("an integer", |_| true)?),
            "--arrival" => args.arrival = Some(cli.value()?),
            "--policy" => args.policy = Some(cli.value()?),
            "--stream" => args.stream = true,
            "--trace" => args.trace = true,
            "--ping" => args.ping = true,
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    args
}

/// Reads and parses a JSON file named on the command line.
fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("bad JSON in {path}: {e}"))
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Builds the request line from the parsed flags.
fn build_request(args: &Args) -> Result<String, String> {
    if args.ping {
        return Ok(r#"{"type":"ping"}"#.to_string());
    }
    if args.stats {
        return Ok(r#"{"type":"stats"}"#.to_string());
    }
    if args.shutdown {
        return Ok(r#"{"type":"shutdown"}"#.to_string());
    }
    if args.nets.is_empty() {
        return Err("nothing to do: pass --net, --ping, --stats, or --shutdown".to_string());
    }

    // The server validates either document; the client only parses it.
    let inline = args.config.as_deref().map(read_json).transpose()?;
    let arch = args.arch.as_deref().map(read_json).transpose()?;
    let exclusive = usize::from(arch.is_some())
        + usize::from(inline.is_some())
        + usize::from(!args.models.is_empty());
    if exclusive > 1 {
        return Err("--model, --config, and --arch are mutually exclusive".to_string());
    }
    if exclusive == 0 {
        return Err("pass --model NAMES, --config FILE, or --arch FILE with --net".to_string());
    }

    if !args.stream
        && (args.requests.is_some()
            || args.batch.is_some()
            || args.arrival.is_some()
            || args.policy.is_some())
    {
        return Err("--requests/--batch/--arrival/--policy need --stream".to_string());
    }
    if args.stream {
        return Ok(build_stream_request(args, &inline, &arch));
    }

    let mut pairs: Vec<(&str, Value)> = Vec::new();
    let single = args.nets.len() == 1 && args.models.len() <= 1;
    if single {
        pairs.push(("type", Value::Str("run".to_string())));
        pairs.push(("workload", Value::Str(args.nets[0].clone())));
        if let Some(desc) = &arch {
            pairs.push(("arch", desc.clone()));
        } else if let Some(config) = &inline {
            pairs.push(("config", config.clone()));
        } else {
            pairs.push(("model", Value::Str(args.models[0].clone())));
        }
    } else {
        pairs.push(("type", Value::Str("matrix".to_string())));
        pairs.push((
            "workloads",
            Value::Arr(args.nets.iter().cloned().map(Value::Str).collect()),
        ));
        let models = if let Some(desc) = &arch {
            vec![obj(vec![("arch", desc.clone())])]
        } else if let Some(config) = &inline {
            vec![config.clone()]
        } else {
            args.models.iter().cloned().map(Value::Str).collect()
        };
        pairs.push(("models", Value::Arr(models)));
    }
    if let Some(seed) = args.seed {
        pairs.push(("seed", Value::U64(seed)));
    }
    if args.trace {
        pairs.push(("trace", Value::Bool(true)));
    }
    Ok(obj(pairs).render())
}

/// Builds a `stream` request (one scenario) or a `batch` of `stream`
/// jobs (workloads × models cross product in one request).
fn build_stream_request(args: &Args, inline: &Option<Value>, arch: &Option<Value>) -> String {
    let job = |net: &str, model: Option<&str>| -> Value {
        let mut pairs: Vec<(&str, Value)> = vec![
            ("type", Value::Str("stream".to_string())),
            ("workload", Value::Str(net.to_string())),
        ];
        if let Some(desc) = arch {
            pairs.push(("arch", desc.clone()));
        } else if let Some(config) = inline {
            pairs.push(("config", config.clone()));
        } else if let Some(name) = model {
            pairs.push(("model", Value::Str(name.to_string())));
        }
        if let Some(n) = args.requests {
            pairs.push(("requests", Value::U64(n)));
        }
        if let Some(b) = args.batch {
            pairs.push(("batch", Value::U64(b)));
        }
        if let Some(a) = &args.arrival {
            pairs.push(("arrival", Value::Str(a.clone())));
        }
        if let Some(p) = &args.policy {
            pairs.push(("policy", Value::Str(p.clone())));
        }
        if let Some(seed) = args.seed {
            pairs.push(("seed", Value::U64(seed)));
        }
        if args.trace {
            pairs.push(("trace", Value::Bool(true)));
        }
        obj(pairs)
    };

    if args.nets.len() == 1 && args.models.len() <= 1 {
        return job(&args.nets[0], args.models.first().map(String::as_str)).render();
    }
    let models: Vec<Option<&str>> = if args.models.is_empty() {
        vec![None]
    } else {
        args.models.iter().map(|m| Some(m.as_str())).collect()
    };
    let jobs: Vec<Value> = args
        .nets
        .iter()
        .flat_map(|net| models.iter().map(|m| job(net, *m)))
        .collect();
    obj(vec![
        ("type", Value::Str("batch".to_string())),
        ("jobs", Value::Arr(jobs)),
    ])
    .render()
}

fn main() {
    let mut cli = cli::Args::from_env(USAGE);
    let args = parse_args(&mut cli);
    let request = build_request(&args).unwrap_or_else(|e| cli.fail(&e));

    let stream = match TcpStream::connect(&args.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("isos-client: cannot connect to {}: {e}", args.addr);
            std::process::exit(2);
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("isos-client: {e}");
            std::process::exit(2);
        }
    };
    if writer.write_all(format!("{request}\n").as_bytes()).is_err() {
        eprintln!("isos-client: send failed");
        std::process::exit(2);
    }

    // Requests that end in a single terminal line vs. a row stream.
    let terminal: &[&str] = if args.ping {
        &["pong"]
    } else if args.stats {
        &["stats"]
    } else if args.shutdown {
        &["bye"]
    } else {
        &["done"]
    };

    let mut saw_error = false;
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("isos-client: recv failed: {e}");
                std::process::exit(2);
            }
        };
        println!("{line}");
        let value = serde::json::parse(&line).ok();
        let kind = value
            .as_ref()
            .and_then(|v| {
                v.field("type")
                    .ok()
                    .map(|t| t.as_str().unwrap_or("").to_string())
            })
            .unwrap_or_default();
        if kind == "error" {
            saw_error = true;
            // An error without an `index` rejected the whole request
            // (e.g. an invalid --arch description): the server keeps
            // the connection open for the next request, but this
            // one-shot client is done — no rows or `done` will follow.
            let request_level = value.is_none_or(|v| v.field("index").is_err());
            if request_level {
                std::process::exit(1);
            }
        }
        if terminal.contains(&kind.as_str()) {
            std::process::exit(i32::from(saw_error));
        }
    }
    eprintln!("isos-client: connection closed before the final response");
    std::process::exit(2);
}
