//! Command-line surface of `stream_run`, `trace_run` and `perf_report`,
//! which follow the rules of `isosceles_bench::cli`: `--help` prints the
//! usage to stdout and exits 0, every bad input prints an error and the
//! usage to stderr and exits 2, and `--flag=value` means `--flag value`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use isosceles::accel::{fnv1a, FNV_OFFSET};

const BINS: [(&str, &str); 3] = [
    ("stream_run", env!("CARGO_BIN_EXE_stream_run")),
    ("trace_run", env!("CARGO_BIN_EXE_trace_run")),
    ("perf_report", env!("CARGO_BIN_EXE_perf_report")),
];

fn run_in(dir: &Path, name: &str, args: &[&str]) -> Output {
    let (_, exe) = BINS.iter().find(|(n, _)| *n == name).expect(name);
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env("ISOS_NO_CACHE", "1")
        .output()
        .expect("run binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("bin-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn help_prints_usage_to_stdout_and_exits_0() {
    let dir = scratch_dir("help");
    for (name, _) in BINS {
        for flag in ["--help", "-h"] {
            let out = run_in(&dir, name, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}");
            let text = String::from_utf8(out.stdout).unwrap();
            assert!(
                text.starts_with(&format!("usage: {name}")),
                "{name} {flag}: {text}"
            );
            assert!(out.stderr.is_empty(), "{name} {flag} wrote to stderr");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_input_exits_2_with_an_error_and_usage() {
    let dir = scratch_dir("bad");
    for (name, args, error) in [
        ("stream_run", &["--bogus"][..], "unknown flag --bogus"),
        ("stream_run", &["stray"], "unexpected argument stray"),
        ("stream_run", &["--requests"], "--requests needs a value"),
        ("stream_run", &["--seed", "abc"], "--seed needs an integer"),
        ("stream_run", &["--smoke=1"], "--smoke takes no value"),
        ("stream_run", &["--threads=0"], "--threads needs an integer"),
        ("stream_run", &["--policy", "lazy"], "--policy: unknown"),
        ("trace_run", &["--bogus"], "unknown flag --bogus"),
        ("trace_run", &["--net"], "--net needs a value"),
        ("trace_run", &["--seed=x"], "--seed needs an integer"),
        ("trace_run", &["--net", "X99"], "unknown workload id X99"),
        ("perf_report", &["--threads", "2"], "unknown flag --threads"),
        ("perf_report", &["--repeat", "0"], "--repeat needs"),
        ("perf_report", &["--regress-pct=-1"], "--regress-pct needs"),
        ("perf_report", &["--smoke=yes"], "--smoke takes no value"),
    ] {
        let out = run_in(&dir, name, args);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with(&format!("error: {error}")),
            "{name} {args:?}: {err}"
        );
        assert!(
            err.contains(&format!("usage: {name}")),
            "{name} {args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stream_run_smoke_report_is_pinned() {
    // The report carries no wall time, and `cache_hit` is false with the
    // cache off, so its bytes are a function of the code alone.
    let dir = scratch_dir("streampin");
    let out = run_in(&dir, "stream_run", &["--smoke", "--no-cache"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fnv1a(FNV_OFFSET, &out.stdout), 0x4c9e_219d_e0f0_376d);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn both_spellings_of_a_value_run_the_same() {
    let dir = scratch_dir("spellings");
    let spaced = run_in(
        &dir,
        "stream_run",
        &[
            "--smoke",
            "--net",
            "G58",
            "--model",
            "isosceles",
            "--seed",
            "3",
        ],
    );
    let joined = run_in(
        &dir,
        "stream_run",
        &["--smoke", "--net=G58", "--model=isosceles", "--seed=3"],
    );
    assert!(spaced.status.success() && joined.status.success());
    assert!(spaced.stdout.starts_with(b"{\"schema\""));
    assert_eq!(spaced.stdout, joined.stdout);

    let out = run_in(
        &dir,
        "trace_run",
        &["--net=G58", "--seed=3", "--out=traces"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("traces/G58-isosceles.trace.json").is_file());

    // perf_report writes under the gitignored results/ unless told
    // otherwise, never over a committed BENCH_*.json.
    let out = run_in(
        &dir,
        "perf_report",
        &["--smoke", "--warmup=0", "--repeat=1"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("results/perf_report.json").is_file());
    assert!(!dir.join("BENCH_10.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}
