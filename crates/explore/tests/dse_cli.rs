//! Command-line surface of the `dse` binary: bad flag values are usage
//! errors (exit 2, usage on stderr, nothing on stdout), and the smoke
//! sweeps run end to end.

use std::process::{Command, Output};

fn dse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .env("ISOS_NO_CACHE", "1")
        .output()
        .expect("run dse")
}

#[test]
fn bad_flag_values_exit_2_with_usage() {
    for args in [
        &["--budget-mm2", "nan"][..],
        &["--budget-mm2", "NaN"],
        &["--budget-mm2", "inf"],
        &["--budget-mm2", "-inf"],
        &["--budget-mm2", "-5"],
        &["--budget-mm2", "0"],
        &["--budget-mm2", "abc"],
        &["--top-k", "0"],
        &["--top-k", "-1"],
        &["--top-k", "x"],
        &["--top-k"],
        &["--top-k="],
        &["--bogus"],
        &["--bogus=1"],
        &["--smoke=1"],
        &["--seed", "abc"],
        &["--seed=-1"],
        &["--batches", "1,,2"],
        &["--net"],
    ] {
        let mut full = vec!["--arch-space", "--smoke"];
        full.extend_from_slice(args);
        let out = dse(&full);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error: "), "{args:?}: {err}");
        assert!(err.contains("usage: dse"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn both_spellings_run_and_help_exits_0() {
    let dir = std::env::temp_dir().join(format!("isos-dse-cli-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_flag = format!("--out={}", dir.display());
    let out = dse(&[
        "--smoke",
        "--net=G58",
        "--seed=7",
        "--top-k=1",
        "--threads=1",
        &out_flag,
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(dir.join("dse-G58.csv").is_file(), "dse-G58.csv not written");
    let _ = std::fs::remove_dir_all(dir);

    for flag in ["--help", "-h"] {
        let out = dse(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(out.stdout.starts_with(b"usage: dse"), "{flag}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn arch_space_smoke_sweep_succeeds() {
    let dir = std::env::temp_dir().join(format!("isos-dse-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dse(&[
        "--arch-space",
        "--smoke",
        "--budget-mm2",
        "30",
        "--top-k",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Screened 10 described points"), "{text}");
    for f in ["dse-G58.json", "dse-G58.csv", "dse-G58.md"] {
        assert!(dir.join(f).is_file(), "{f} not written");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stream_combines_with_described_architectures() {
    let dir = std::env::temp_dir().join(format!("isos-dse-cli-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arch = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/arch");
    let out = dse(&[
        "--stream",
        "--arch",
        arch,
        "--smoke",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("Streaming design-space exploration: G58"),
        "{text}"
    );
    for f in [
        "dse-stream-G58.json",
        "dse-stream-G58.csv",
        "dse-stream-G58.md",
    ] {
        assert!(dir.join(f).is_file(), "{f} not written");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn toml_descriptions_are_usage_errors() {
    // Descriptions are JSON only: a TOML file is a parse error naming
    // the file, and a directory of TOML files holds no descriptions.
    let dir = std::env::temp_dir().join(format!("isos-dse-cli-toml-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("sparten.toml");
    std::fs::write(&file, "name = \"sparten\"\n\n[compute]\nlanes = 64\n").unwrap();
    let out_dir = dir.join("out");

    let out = dse(&[
        "--arch",
        file.to_str().unwrap(),
        "--smoke",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage: dse"), "{err}");
    assert!(err.contains(file.to_str().unwrap()), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let out = dse(&[
        "--arch",
        dir.to_str().unwrap(),
        "--smoke",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no .json descriptions"), "{err}");
    assert!(err.contains("usage: dse"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}
