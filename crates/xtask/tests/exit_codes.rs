//! The xtask subcommand exit-code contract, exercised end to end on the
//! real binary: `0` clean, `1` findings, `2` usage or I/O error — for
//! every subcommand, so CI can gate on any of them uniformly.

// The run helper is a plain fn, outside the `allow-expect-in-tests` carve-out.
#![allow(clippy::expect_used)]

use std::io::Write;
use std::process::{Command, Stdio};

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

/// Runs the binary with `args`, feeding `stdin`, and returns the exit code.
fn run(args: &[&str], stdin: &str) -> i32 {
    let mut child = xtask()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xtask");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child
        .wait()
        .expect("wait for xtask")
        .code()
        .expect("exit code")
}

#[test]
fn unknown_subcommand_is_usage_error() {
    assert_eq!(run(&["frobnicate"], ""), 2);
}

#[test]
fn missing_flag_argument_is_usage_error() {
    assert_eq!(run(&["lint", "--root"], ""), 2);
}

#[test]
fn lint_on_a_dirty_fixture_tree_is_findings() {
    let dir = std::env::temp_dir().join(format!("xtask-exit-{}", std::process::id()));
    for sub in ["src", "lint"] {
        std::fs::create_dir_all(dir.join(sub)).expect("create fixture tree");
    }
    std::fs::write(dir.join("src/lib.rs"), "pub fn one() -> u32 {\n    1\n}\n")
        .expect("write fixture");
    // Three non-test lines against a cap of two.
    std::fs::write(dir.join("lint/budget.toml"), "[budget]\n\"src\" = 2\n").expect("write budget");
    let code = run(&["lint", "--root", dir.to_str().expect("utf-8 path")], "");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, 1);
}

#[test]
fn promcheck_clean_and_findings() {
    let clean = "# TYPE ctup_up gauge\nctup_up 1\n";
    assert_eq!(run(&["promcheck"], clean), 0);
    assert_eq!(run(&["promcheck"], "ctup_up{oops 1\n"), 1);
}

#[test]
fn healthcheck_clean_and_findings() {
    let clean = "{\"status\":\"ok\",\"degraded\":false,\"queue_depth\":0,\"sessions\":0,\
                 \"degraded_since_ms\":0,\"build\":\"0.1.0+abcdef0\"}";
    assert_eq!(run(&["healthcheck"], clean), 0);
    assert_eq!(
        run(&["healthcheck"], "{\"status\":\"ok\",\"degraded\":true}"),
        1
    );
}

#[test]
fn spancheck_requires_a_file_and_rejects_garbage() {
    assert_eq!(run(&["spancheck"], ""), 2);
    let path = std::env::temp_dir().join(format!("xtask-span-{}.jsonl", std::process::id()));
    std::fs::write(&path, "not json\n").expect("write fixture");
    let code = run(&["spancheck", path.to_str().expect("utf-8 path")], "");
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 1);
}

#[test]
fn flightcheck_requires_a_file_and_checks_the_dump_shape() {
    assert_eq!(run(&["flightcheck"], ""), 2);
    let terminal = "{\"outcome\":\"killed\",\"seq\":40,\"unit\":2}\n";
    let span = "{\"trace\":7,\"span\":11,\"parent\":5,\"stage\":\"merge\",\"start\":1,\"end\":2,\"aux\":0}\n";
    for (dump, want) in [
        (terminal.to_string(), 0),
        (format!("{terminal}{span}"), 1),
        (format!("{{\"seq\":40}}\n{span}"), 1),
        (format!("{terminal}{span}{terminal}"), 1),
        ("not json\n".to_string(), 1),
    ] {
        let path = std::env::temp_dir().join(format!("xtask-flight-{}.jsonl", std::process::id()));
        std::fs::write(&path, &dump).expect("write fixture");
        let code = run(&["flightcheck", path.to_str().expect("utf-8 path")], "");
        std::fs::remove_file(&path).ok();
        assert_eq!(code, want, "{dump}");
    }
}
