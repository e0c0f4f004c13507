//! The newline-delimited JSON wire protocol.
//!
//! Every request is one line holding a JSON object with a `"type"`
//! field; every response is one line holding a JSON object with a
//! `"type"` field. Requests are parsed tolerantly by hand from the
//! [`Value`] tree (optional fields get defaults; anything structurally
//! wrong produces a [`Response::error`] instead of a dropped
//! connection), and responses are built as `Value` trees directly so
//! the wire format is owned by this module, not by derive expansion.
//!
//! Request types:
//!
//! - `{"type":"run","workload":"R96","model":"isosceles","seed":...,"trace":false}`
//!   — one job. `"model"` names a default-configured suite model;
//!   `"config"` instead carries an inline [`IsoscelesConfig`] object or
//!   a [`LabeledConfig`] (`{"label":...,"config":{...}}`);
//!   `"arch"` instead carries a declarative [`ArchDesc`] object, which
//!   the server lowers onto the sim substrate before running. Schema
//!   violations come back as structured `error` lines naming the bad
//!   field; the connection stays open.
//! - `{"type":"matrix","workloads":[...],"models":[...]}` — the cross
//!   product, streamed as `row` responses in completion order. A model
//!   entry is a name string, an inline config object, or an
//!   `{"arch":{...}}` description. Omitted `workloads`/`models` default
//!   to the full paper suite and all four models.
//! - `{"type":"stream","workload":...,"model":...,"requests":256,
//!   "batch":4,"arrival":"poisson:50000","policy":"greedy"}` — one
//!   batched streaming-inference scenario ([`StreamConfig`] fields all
//!   optional); the row's `metrics` carry throughput, p50/p95/p99
//!   latency, and queue depth next to the conserved totals.
//! - `{"type":"batch","jobs":[{...},{...}]}` — heterogeneous scenarios
//!   (each entry a `run`- or `stream`-shaped object, discriminated by
//!   its own `"type"`, default `run`) submitted as one request.
//!   Identical concurrent untraced jobs, `run` and `stream` alike, are
//!   deduplicated through the engine's single-flight table, so
//!   duplicates cost one computation.
//! - `{"type":"stats"}` — lifetime engine, store, and worker counters,
//!   plus the open connections and the jobs queued for a worker. The
//!   engine's `hits`, `misses`, `deduped` and `computes` count untraced
//!   `run` and `stream` rows alike (traced jobs bypass them). The
//!   `store` object holds the cache root, `byte_limit`, the live
//!   `entries` and `bytes`, and `counters` (`hits`, `misses`, `writes`,
//!   `quarantined`, `evicted_entries`, `evicted_bytes`).
//! - `{"type":"ping"}` / `{"type":"shutdown"}`.

use isos_explore::arch::ArchDesc;
use isos_stream::{Arrival, BatchPolicy, StreamConfig};
use isosceles::IsoscelesConfig;
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// Default request seed: the paper suite seed.
pub const DEFAULT_SEED: u64 = isosceles_bench::suite::SEED;

/// Which accelerator a job should run on.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelSpec {
    /// A default-configured suite model, by name (`"isosceles"`,
    /// `"sparten"`, ...).
    Named(String),
    /// An inline configuration.
    Inline(LabeledConfig),
    /// A declarative architecture description, lowered server-side.
    Arch(Box<ArchDesc>),
}

impl ModelSpec {
    /// The label reported back in `row` responses.
    pub fn label(&self) -> &str {
        match self {
            ModelSpec::Named(name) => name,
            ModelSpec::Inline(point) => &point.label,
            ModelSpec::Arch(desc) => &desc.name,
        }
    }
}

/// An inline configuration with the label its rows report: the wire
/// form `{"label":...,"config":{...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabeledConfig {
    /// Label reported back in `row` responses.
    pub label: String,
    /// The configuration to simulate.
    pub config: IsoscelesConfig,
}

/// One simulation job as requested on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Suite workload id (`"R96"`, ...).
    pub workload: String,
    /// Accelerator to run it on.
    pub model: ModelSpec,
    /// RNG seed.
    pub seed: u64,
    /// Attach an event trace and return per-unit stall breakdowns.
    /// Traced jobs always simulate (the cache stores metrics only).
    pub trace: bool,
    /// `Some` turns the job into a batched streaming-inference
    /// scenario ([`isosceles_bench::stream`]) instead of one
    /// single-image simulation.
    pub stream: Option<StreamConfig>,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run one job and stream its row.
    Run(Box<JobSpec>),
    /// Run a workloads × models matrix, streaming rows as they finish.
    Matrix(Vec<JobSpec>),
    /// Run an explicit list of heterogeneous jobs (single-inference and
    /// streaming scenarios mixed) as one request.
    Batch(Vec<JobSpec>),
    /// Report lifetime server statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain in-flight jobs and stop the server.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `"type"`, or structurally invalid fields. The caller wraps
/// it in a [`Response::error`] line; the connection stays usable.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde::json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let kind = value
        .field("type")
        .ok()
        .and_then(Value::as_str)
        .ok_or("request must be an object with a string `type` field")?;
    match kind {
        "run" => Ok(Request::Run(Box::new(parse_job(&value)?))),
        "stream" => Ok(Request::Run(Box::new(parse_stream_job(&value)?))),
        "matrix" => parse_matrix(&value),
        "batch" => parse_batch(&value),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown request type `{other}` (expected run, stream, matrix, batch, stats, ping, \
             or shutdown)"
        )),
    }
}

/// Parses the seed/trace fields shared by `run` and `matrix`.
fn parse_common(value: &Value) -> Result<(u64, bool), String> {
    let seed = match value.field("seed") {
        Ok(v) => v.as_u64().map_err(|e| format!("bad `seed`: {e}"))?,
        Err(_) => DEFAULT_SEED,
    };
    let trace = match value.field("trace") {
        Ok(v) => v.as_bool().map_err(|e| format!("bad `trace`: {e}"))?,
        Err(_) => false,
    };
    Ok((seed, trace))
}

fn parse_job(value: &Value) -> Result<JobSpec, String> {
    let workload = value
        .field("workload")
        .ok()
        .and_then(Value::as_str)
        .ok_or("`run` needs a string `workload` field")?
        .to_string();
    let model = parse_model(value)?;
    let (seed, trace) = parse_common(value)?;
    Ok(JobSpec {
        workload,
        model,
        seed,
        trace,
        stream: None,
    })
}

/// Parses a `stream` job: a `run`-shaped object plus the optional
/// [`StreamConfig`] fields (`requests`, `batch`, `arrival`, `policy`).
fn parse_stream_job(value: &Value) -> Result<JobSpec, String> {
    let mut spec = parse_job(value)?;
    spec.stream = Some(parse_stream_cfg(value)?);
    Ok(spec)
}

/// Extracts a validated [`StreamConfig`] from a request object; every
/// field is optional and defaults to [`StreamConfig::default`].
fn parse_stream_cfg(value: &Value) -> Result<StreamConfig, String> {
    let mut cfg = StreamConfig::default();
    if let Ok(v) = value.field("requests") {
        cfg.requests = v.as_u64().map_err(|e| format!("bad `requests`: {e}"))?;
    }
    if let Ok(v) = value.field("batch") {
        cfg.batch = v.as_u64().map_err(|e| format!("bad `batch`: {e}"))?;
    }
    if let Ok(v) = value.field("arrival") {
        let spelled = v
            .as_str()
            .ok_or_else(|| format!("bad `arrival`: expected string, got {}", v.kind()))?;
        cfg.arrival = Arrival::parse(spelled).map_err(|e| format!("bad `arrival`: {e}"))?;
    }
    if let Ok(v) = value.field("policy") {
        let spelled = v
            .as_str()
            .ok_or_else(|| format!("bad `policy`: expected string, got {}", v.kind()))?;
        cfg.policy = BatchPolicy::parse(spelled).map_err(|e| format!("bad `policy`: {e}"))?;
    }
    cfg.validate()
        .map_err(|e| format!("bad stream config: {e}"))?;
    Ok(cfg)
}

/// Parses a `batch` request: an explicit `jobs` array of heterogeneous
/// `run`/`stream` objects, discriminated by each entry's own `"type"`.
fn parse_batch(value: &Value) -> Result<Request, String> {
    let jobs = value
        .field("jobs")
        .map_err(|_| "`batch` needs a `jobs` array".to_string())?
        .as_arr()
        .map_err(|e| format!("bad `jobs`: {e}"))?;
    if jobs.is_empty() {
        return Err("batch needs at least one job".to_string());
    }
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let kind = match job.field("type") {
                Ok(t) => t
                    .as_str()
                    .ok_or_else(|| format!("job {i}: `type` must be a string"))?,
                Err(_) => "run",
            };
            match kind {
                "run" => parse_job(job),
                "stream" => parse_stream_job(job),
                other => Err(format!("job {i}: unknown job type `{other}`")),
            }
            .map_err(|e| format!("job {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Request::Batch)
}

/// Resolves a job's accelerator: a `"model"` name, an inline `"config"`
/// object (either a bare [`IsoscelesConfig`] or a labeled
/// [`LabeledConfig`]), or a declarative `"arch"` description.
fn parse_model(value: &Value) -> Result<ModelSpec, String> {
    if let Ok(arch) = value.field("arch") {
        return parse_arch(arch);
    }
    if let Ok(config) = value.field("config") {
        return parse_inline(config);
    }
    let name = value.field("model").ok().and_then(Value::as_str).ok_or(
        "job needs a string `model` name, an inline `config` object, or an `arch` description",
    )?;
    Ok(ModelSpec::Named(name.to_string()))
}

/// Parses and validates a declarative [`ArchDesc`]. Both structural
/// problems (unknown fields, wrong types) and semantic ones (zero-size
/// buffers, dataflow rank mismatches) surface as error messages so the
/// client sees a structured `error` line instead of a dropped
/// connection.
fn parse_arch(arch: &Value) -> Result<ModelSpec, String> {
    let desc = ArchDesc::from_value(arch).map_err(|e| format!("bad arch description: {e}"))?;
    desc.validate()
        .map_err(|e| format!("invalid arch description: {e}"))?;
    Ok(ModelSpec::Arch(Box::new(desc)))
}

fn parse_inline(config: &Value) -> Result<ModelSpec, String> {
    // A labeled config ({"label":...,"config":{...}}) or a bare
    // IsoscelesConfig object.
    if config.field("label").is_ok() {
        let point =
            LabeledConfig::from_value(config).map_err(|e| format!("bad design point: {e}"))?;
        return Ok(ModelSpec::Inline(point));
    }
    let config = IsoscelesConfig::from_value(config)
        .map_err(|e| format!("bad inline config (all IsoscelesConfig fields required): {e}"))?;
    Ok(ModelSpec::Inline(LabeledConfig {
        label: "inline".to_string(),
        config,
    }))
}

fn parse_matrix(value: &Value) -> Result<Request, String> {
    let (seed, trace) = parse_common(value)?;
    let workloads: Vec<String> = match value.field("workloads") {
        Ok(v) => v
            .as_arr()
            .map_err(|e| format!("bad `workloads`: {e}"))?
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("bad workload id: expected string, got {}", w.kind()))
            })
            .collect::<Result<_, _>>()?,
        Err(_) => isos_nn::models::SUITE_IDS
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let models: Vec<ModelSpec> = match value.field("models") {
        Ok(v) => v
            .as_arr()
            .map_err(|e| format!("bad `models`: {e}"))?
            .iter()
            .map(|m| match m {
                Value::Str(name) => Ok(ModelSpec::Named(name.clone())),
                Value::Obj(_) => match m.field("arch") {
                    Ok(arch) => parse_arch(arch),
                    Err(_) => parse_inline(m),
                },
                other => Err(format!(
                    "bad model: expected name, config object, or arch description, got {}",
                    other.kind()
                )),
            })
            .collect::<Result<_, _>>()?,
        Err(_) => isosceles_bench::trace::MODEL_NAMES
            .iter()
            .map(|s| ModelSpec::Named(s.to_string()))
            .collect(),
    };
    if workloads.is_empty() || models.is_empty() {
        return Err("matrix needs at least one workload and one model".to_string());
    }
    let jobs = workloads
        .iter()
        .flat_map(|w| {
            models.iter().map(move |m| JobSpec {
                workload: w.clone(),
                model: m.clone(),
                seed,
                trace,
                stream: None,
            })
        })
        .collect();
    Ok(Request::Matrix(jobs))
}

/// Response line builders. Each returns the serialized JSON (without
/// the trailing newline the connection handler appends).
pub struct Response;

/// Builds a JSON object from `(key, value)` pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

impl Response {
    /// `{"type":"error","message":...}` (+ `index` inside a matrix).
    pub fn error(message: &str, index: Option<usize>) -> String {
        let mut pairs = vec![
            ("type", str_value("error")),
            ("message", str_value(message)),
        ];
        if let Some(i) = index {
            pairs.push(("index", Value::U64(i as u64)));
        }
        obj(pairs).render()
    }

    /// `{"type":"pong"}`.
    pub fn pong() -> String {
        obj(vec![("type", str_value("pong"))]).render()
    }

    /// `{"type":"bye","reason":...}` — the connection's last line.
    pub fn bye(reason: &str) -> String {
        obj(vec![
            ("type", str_value("bye")),
            ("reason", str_value(reason)),
        ])
        .render()
    }

    /// `{"type":"listening","addr":...}` — printed by the `serve` bin so
    /// scripts can discover an ephemeral port.
    pub fn listening(addr: &str) -> String {
        obj(vec![
            ("type", str_value("listening")),
            ("addr", str_value(addr)),
        ])
        .render()
    }

    /// One finished job. `stalls` rows are attached for traced jobs.
    ///
    /// The borrowed `metrics` tree, most of a row's bytes, is rendered
    /// straight into the line after the head fields, never cloned.
    #[allow(clippy::too_many_arguments)]
    pub fn row(
        index: usize,
        spec: &JobSpec,
        model: &str,
        cache_hit: bool,
        deduped: bool,
        millis: f64,
        metrics: &Value,
        stalls: Option<Value>,
    ) -> String {
        let mut out = obj(vec![
            ("type", str_value("row")),
            ("index", Value::U64(index as u64)),
            ("workload", str_value(&spec.workload)),
            ("model", str_value(model)),
            ("label", str_value(spec.model.label())),
            ("seed", Value::U64(spec.seed)),
            ("cache_hit", Value::Bool(cache_hit)),
            ("deduped", Value::Bool(deduped)),
            ("millis", Value::F64(millis)),
        ])
        .render();
        // Reopen the head object and append the remaining fields.
        out.pop();
        out.push_str(",\"metrics\":");
        metrics.render_into(&mut out);
        if let Some(stalls) = stalls {
            out.push_str(",\"stalls\":");
            stalls.render_into(&mut out);
        }
        out.push('}');
        out
    }

    /// End-of-request summary after all rows of a `run`/`matrix`.
    pub fn done(
        jobs: usize,
        hits: usize,
        misses: usize,
        deduped: usize,
        wall_millis: f64,
    ) -> String {
        obj(vec![
            ("type", str_value("done")),
            ("jobs", Value::U64(jobs as u64)),
            ("hits", Value::U64(hits as u64)),
            ("misses", Value::U64(misses as u64)),
            ("deduped", Value::U64(deduped as u64)),
            ("wall_millis", Value::F64(wall_millis)),
        ])
        .render()
    }

    /// `{"type":"stats",...}` from pre-built sections.
    pub fn stats(pairs: Vec<(&str, Value)>) -> String {
        let mut all = vec![("type", str_value("stats"))];
        all.extend(pairs);
        obj(all).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_with_defaults() {
        let req = parse_request(r#"{"type":"run","workload":"R96","model":"sparten"}"#).unwrap();
        let Request::Run(spec) = req else {
            panic!("expected run")
        };
        assert_eq!(spec.workload, "R96");
        assert_eq!(spec.model, ModelSpec::Named("sparten".into()));
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert!(!spec.trace);
    }

    #[test]
    fn run_request_with_inline_config() {
        let config = IsoscelesConfig {
            lanes: 32,
            ..IsoscelesConfig::default()
        };
        let line = format!(
            r#"{{"type":"run","workload":"G58","config":{},"seed":7}}"#,
            serde::json::to_string(&config)
        );
        let Request::Run(spec) = parse_request(&line).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(spec.seed, 7);
        let ModelSpec::Inline(point) = spec.model else {
            panic!("expected inline model")
        };
        assert_eq!(point.label, "inline");
        assert_eq!(point.config, config);
    }

    #[test]
    fn run_request_with_labeled_design_point() {
        let point = LabeledConfig {
            label: "l32".into(),
            config: IsoscelesConfig {
                lanes: 32,
                ..IsoscelesConfig::default()
            },
        };
        let line = format!(
            r#"{{"type":"run","workload":"G58","config":{}}}"#,
            serde::json::to_string(&point)
        );
        let Request::Run(spec) = parse_request(&line).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(spec.model, ModelSpec::Inline(point));
    }

    #[test]
    fn run_request_with_arch_description() {
        let desc = isos_explore::arch::reference::sparten();
        let line = format!(
            r#"{{"type":"run","workload":"G58","arch":{}}}"#,
            serde::json::to_string(&desc)
        );
        let Request::Run(spec) = parse_request(&line).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(spec.model.label(), "sparten");
        assert_eq!(spec.model, ModelSpec::Arch(Box::new(desc)));
    }

    #[test]
    fn arch_schema_violations_return_structured_messages() {
        // Semantic violation: zero-size buffer level.
        let mut desc = isos_explore::arch::reference::sparten();
        desc.levels[0].bytes = 0;
        let line = format!(
            r#"{{"type":"run","workload":"G58","arch":{}}}"#,
            serde::json::to_string(&desc)
        );
        let err = parse_request(&line).unwrap_err();
        assert!(err.contains("invalid arch description"), "{err}");
        assert!(err.contains("zero size"), "{err}");

        // Structural violation: unknown field.
        let err =
            parse_request(r#"{"type":"run","workload":"G58","arch":{"nome":"x"}}"#).unwrap_err();
        assert!(err.contains("bad arch description"), "{err}");
        assert!(err.contains("unknown field"), "{err}");
    }

    #[test]
    fn matrix_accepts_arch_model_entries() {
        let desc = isos_explore::arch::reference::fused_layer();
        let line = format!(
            r#"{{"type":"matrix","workloads":["G58"],"models":["isosceles",{{"arch":{}}}]}}"#,
            serde::json::to_string(&desc)
        );
        let Request::Matrix(jobs) = parse_request(&line).unwrap() else {
            panic!("expected matrix")
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].model.label(), "isosceles");
        assert_eq!(jobs[1].model.label(), "fused-layer");
        assert!(matches!(jobs[1].model, ModelSpec::Arch(_)));
    }

    #[test]
    fn matrix_request_expands_the_cross_product() {
        let req = parse_request(
            r#"{"type":"matrix","workloads":["R96","G58"],"models":["isosceles","sparten"],"seed":3}"#,
        )
        .unwrap();
        let Request::Matrix(jobs) = req else {
            panic!("expected matrix")
        };
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].workload, "R96");
        assert_eq!(jobs[0].model.label(), "isosceles");
        assert_eq!(jobs[3].workload, "G58");
        assert_eq!(jobs[3].model.label(), "sparten");
        assert!(jobs.iter().all(|j| j.seed == 3));
    }

    #[test]
    fn matrix_defaults_to_the_full_suite() {
        let Request::Matrix(jobs) = parse_request(r#"{"type":"matrix"}"#).unwrap() else {
            panic!("expected matrix")
        };
        assert_eq!(
            jobs.len(),
            isos_nn::models::SUITE_IDS.len() * isosceles_bench::trace::MODEL_NAMES.len()
        );
    }

    #[test]
    fn stream_request_carries_a_validated_scenario() {
        let req = parse_request(
            r#"{"type":"stream","workload":"G58","model":"isosceles","requests":16,"batch":4,
                "arrival":"poisson:50000","policy":"waitfull","seed":9}"#,
        )
        .unwrap();
        let Request::Run(spec) = req else {
            panic!("expected run-shaped job")
        };
        assert_eq!(spec.workload, "G58");
        assert_eq!(spec.seed, 9);
        let cfg = spec.stream.expect("stream scenario");
        assert_eq!((cfg.requests, cfg.batch), (16, 4));
        assert_eq!(cfg.arrival, Arrival::Poisson { mean: 50000.0 });
        assert_eq!(cfg.policy, BatchPolicy::WaitFull);

        // All scenario fields are optional.
        let Request::Run(spec) =
            parse_request(r#"{"type":"stream","workload":"G58","model":"sparten"}"#).unwrap()
        else {
            panic!("expected run-shaped job")
        };
        assert_eq!(spec.stream, Some(StreamConfig::default()));

        // But present fields are validated.
        let err =
            parse_request(r#"{"type":"stream","workload":"G58","model":"isosceles","requests":0}"#)
                .unwrap_err();
        assert!(err.contains("bad stream config"), "{err}");
        let err = parse_request(
            r#"{"type":"stream","workload":"G58","model":"isosceles","arrival":"fibonacci"}"#,
        )
        .unwrap_err();
        assert!(err.contains("bad `arrival`"), "{err}");
    }

    #[test]
    fn batch_request_mixes_run_and_stream_jobs() {
        let req = parse_request(
            r#"{"type":"batch","jobs":[
                {"workload":"G58","model":"isosceles","seed":3},
                {"type":"stream","workload":"M75","model":"sparten","requests":8,"batch":2}
            ]}"#,
        )
        .unwrap();
        let Request::Batch(jobs) = req else {
            panic!("expected batch")
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].workload, "G58");
        assert!(jobs[0].stream.is_none(), "untyped entries default to run");
        assert_eq!(jobs[1].workload, "M75");
        assert_eq!(jobs[1].stream.map(|c| (c.requests, c.batch)), Some((8, 2)));

        let err = parse_request(r#"{"type":"batch","jobs":[]}"#).unwrap_err();
        assert!(err.contains("at least one job"), "{err}");
        let err = parse_request(r#"{"type":"batch"}"#).unwrap_err();
        assert!(err.contains("jobs"), "{err}");
        let err = parse_request(r#"{"type":"batch","jobs":[{"type":"dance","workload":"G58"}]}"#)
            .unwrap_err();
        assert!(err.contains("job 0"), "{err}");
        assert!(err.contains("unknown job type"), "{err}");
    }

    #[test]
    fn malformed_lines_return_messages_not_panics() {
        assert!(parse_request("not json").unwrap_err().contains("malformed"));
        assert!(parse_request("[1,2]").unwrap_err().contains("type"));
        assert!(parse_request(r#"{"type":"dance"}"#)
            .unwrap_err()
            .contains("unknown request type"));
        assert!(parse_request(r#"{"type":"run"}"#)
            .unwrap_err()
            .contains("workload"));
        assert!(parse_request(r#"{"type":"run","workload":"R96"}"#)
            .unwrap_err()
            .contains("model"));
        assert!(
            parse_request(r#"{"type":"run","workload":"R96","config":{"lanes":64}}"#)
                .unwrap_err()
                .contains("inline config")
        );
    }

    #[test]
    fn responses_are_single_line_json_with_a_type() {
        for line in [
            Response::error("boom", Some(3)),
            Response::pong(),
            Response::bye("shutdown"),
            Response::listening("127.0.0.1:9"),
            Response::done(4, 1, 2, 1, 12.5),
        ] {
            assert!(!line.contains('\n'));
            let v = serde::json::parse(&line).unwrap();
            assert!(v.field("type").unwrap().as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn row_renders_as_the_object_it_describes() {
        let spec = JobSpec {
            workload: "R81 \"é\"".into(),
            model: ModelSpec::Named("isosceles".into()),
            seed: 7,
            trace: false,
            stream: None,
        };
        let metrics = serde::json::parse(
            r#"{"total":{"cycles":12,"energy":0.5,"layers":[["c\n1",{"x":-3}]]},"ok":null}"#,
        )
        .unwrap();
        let stalls = serde::json::parse(r#"[{"unit":"pe0","busy":1.25}]"#).unwrap();
        for stalls in [None, Some(stalls)] {
            let mut pairs = vec![
                ("type", str_value("row")),
                ("index", Value::U64(3)),
                ("workload", str_value(&spec.workload)),
                ("model", str_value("isosceles")),
                ("label", str_value("isosceles")),
                ("seed", Value::U64(7)),
                ("cache_hit", Value::Bool(true)),
                ("deduped", Value::Bool(false)),
                ("millis", Value::F64(0.25)),
                ("metrics", metrics.clone()),
            ];
            if let Some(stalls) = &stalls {
                pairs.push(("stalls", stalls.clone()));
            }
            let row = Response::row(3, &spec, "isosceles", true, false, 0.25, &metrics, stalls);
            assert_eq!(row, obj(pairs).render());
        }
    }
}
