//! Command-line surface of the `paper` binary: usage, bad input, and the
//! commands that need no suite run (`scripts/check.sh` runs `paper all`
//! on a release build).

use std::process::{Command, Output};

const COMMANDS: &str = "fig04 fig13 fig14 fig15 fig16 fig17 fig18 table01 table02 table03 \
                        table04 intro ablations microarch microsim resnet-scaling summary export";

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .env("ISOS_NO_CACHE", "1")
        .output()
        .expect("run paper")
}

#[test]
fn help_lists_every_command() {
    let out = paper(&["--help"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty());
    assert_eq!(paper(&["-h"]).stdout, out.stdout);
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in COMMANDS.split_whitespace() {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(cmd)),
            "--help omits {cmd}:\n{text}"
        );
    }
    assert!(text.contains("\n  all "));
}

#[test]
fn bad_input_exits_2_with_usage() {
    for args in [
        &["fig99"][..],
        &["table01", "--bogus"],
        &["--threads", "0", "table01"],
        &["--threads", "abc", "table01"],
        &["--cache-bytes", "64x", "table01"],
        &[],
        &["--trace", "table01"],
        &["--trace=1", "summary"],
        &["--no-cache=1", "table01"],
        &["table01", "--threads"],
        &["--cache-bytes=", "table01"],
    ] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error: "), "{args:?}: {err}");
        assert!(err.contains("usage: paper"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }

    // An engine variable gets its flag's check, and the error names it.
    for (var, value) in [("ISOS_THREADS", "abc"), ("ISOS_CACHE_BYTES", "0")] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg("table01")
            .env(var, value)
            .output()
            .expect("run paper");
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with(&format!("error: {var} needs ")), "{err}");
        assert!(out.stdout.is_empty(), "{var}={value} printed to stdout");
    }
}

#[test]
fn standalone_commands_print_their_headers() {
    for (cmd, header) in [
        ("table01", "# Table I:"),
        ("table02", "# Table II:"),
        ("table03", "# Table III:"),
        ("table04", "# Table IV:"),
        ("fig04", "# Figure 4:"),
        ("fig13", "# Figure 13:"),
    ] {
        let out = paper(&[cmd]);
        assert!(out.status.success(), "{cmd} failed");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with(header), "{cmd} printed:\n{text}");
    }

    // Commands run in the order given; with no suite command there is
    // no engine run, so stderr stays empty.
    let out = paper(&["table03", "--threads=2", "--no-cache", "table01"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let at = |header: &str| text.find(header).expect(header);
    assert!(at("# Table III:") < at("# Table I:"));
    assert!(out.stderr.is_empty());
}
