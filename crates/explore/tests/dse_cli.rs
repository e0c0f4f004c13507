//! Command-line surface of the `dse` binary: bad flag values are usage
//! errors (exit 2, usage on stderr, nothing on stdout), and the
//! described-architecture smoke sweep runs end to end.

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
        &["--bogus"],
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
    for f in ["dse-arch-G58.json", "dse-arch-G58.csv", "dse-arch-G58.md"] {
        assert!(dir.join(f).is_file(), "{f} not written");
    }
    let _ = std::fs::remove_dir_all(dir);
}
