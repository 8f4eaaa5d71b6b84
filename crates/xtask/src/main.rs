//! `cargo xtask` entry point.
//!
//! ```text
//! cargo xtask lint                         # report, exit 1 on violations
//! cargo xtask lint --update-fingerprints   # re-record lint/fingerprints.toml
//! cargo xtask lint --root <dir>            # lint a different tree (tests, CI)
//! cargo xtask promcheck [FILE]             # validate a Prometheus exposition (stdin default)
//! cargo xtask flightcheck FILE             # validate a crash dump (flight-recorder.jsonl)
//! cargo xtask healthcheck [FILE]           # validate a /healthz body (stdin default)
//! cargo xtask spancheck FILE               # validate a causal span JSONL dump
//! ```

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use xtask::obscheck::{self, Problem};

fn usage() -> &'static str {
    "xtask — workspace automation

USAGE:
    cargo xtask lint [--update-fingerprints] [--root <dir>]
    cargo xtask promcheck [FILE]
    cargo xtask flightcheck FILE
    cargo xtask healthcheck [FILE]
    cargo xtask spancheck FILE

The lint subcommand checks what rustc and clippy cannot (DESIGN.md §10):
every metrics field reported (L004), checkpoint-format fingerprints
against lint/fingerprints.toml (L005) and the line budget in
lint/budget.toml (L011). promcheck validates a Prometheus text
exposition (from `ctup run --format prom` or a `/metrics` scrape;
reads stdin when FILE is omitted). flightcheck validates a crash
dump (`flight-recorder.jsonl`): one terminal outcome line. healthcheck
validates a `/healthz` body from `ctup serve` (stdin when FILE is
omitted): status/degraded must agree, the load gauges must be
integers, and a `build` stamp must be present. spancheck validates a
causal span JSONL dump from `ctup serve --span-dump` (DESIGN.md §17):
parents before children, no orphaned spans, the canonical pipeline
stages all covered. Exit codes: 0 clean, 1 violations, 2 usage or
I/O error."
}

/// Reads `file`, or stdin when it is `None`.
fn read_input(file: Option<&String>) -> Result<String, String> {
    match file {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("stdin: {e}"))?;
            Ok(text)
        }
    }
}

/// Runs one validator subcommand: reads FILE (stdin unless
/// `needs_file`), then prints the summary and exits 0, or prints each
/// problem and exits 1. A missing FILE or an unreadable input exits 2.
fn validate(
    cmd: &str,
    file: Option<&String>,
    needs_file: bool,
    check: impl Fn(&str) -> Result<String, Vec<Problem>>,
) -> ExitCode {
    if needs_file && file.is_none() {
        eprintln!("{cmd} requires a file\n\n{}", usage());
        return ExitCode::from(2);
    }
    let text = match read_input(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{cmd}: {e}");
            return ExitCode::from(2);
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("{cmd}: {summary}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("{cmd}: {p}");
            }
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let Some(cmd) = iter.next() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "lint" => lint(iter),
        "promcheck" => validate(cmd, iter.next(), false, |text| {
            let problems = obscheck::check_prom(text);
            if problems.is_empty() {
                Ok("well-formed exposition".into())
            } else {
                Err(problems)
            }
        }),
        "healthcheck" => validate(cmd, iter.next(), false, |text| {
            obscheck::check_health(text).map(|s| {
                format!(
                    "status {:?}, degraded {}, {} session(s), queue depth {}, build {}",
                    s.status, s.degraded, s.sessions, s.queue_depth, s.build
                )
            })
        }),
        "flightcheck" => validate(cmd, iter.next(), true, |text| {
            obscheck::check_flight(text).map(|s| format!("{} at seq {}", s.outcome, s.seq))
        }),
        "spancheck" => validate(cmd, iter.next(), true, |text| {
            xtask::spancheck::check_spans(text).map(|s| {
                format!(
                    "{} span(s) across {} trace(s), {} complete chain(s)",
                    s.spans, s.traces, s.complete_chains
                )
            })
        }),
        other => {
            eprintln!("unknown subcommand {other:?}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// `lint [--update-fingerprints] [--root <dir>]`.
fn lint<'a>(mut args: impl Iterator<Item = &'a String>) -> ExitCode {
    let mut update = false;
    // Default root: the workspace containing this crate; the alias in
    // .cargo/config.toml may invoke us from any subdirectory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update-fingerprints" => update = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other:?}\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let config = xtask::LintConfig::default();
    let report = match xtask::run_lint(&root, &config, update) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        println!("{} {}:{} {}", v.rule, v.file, v.line, v.message);
    }
    if update {
        println!("fingerprints re-recorded in lint/fingerprints.toml");
    }
    if report.clean() {
        println!(
            "xtask lint: clean ({} files, {} rules)",
            report.files_checked,
            xtask::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {} violation(s) in {} files",
            report.violations.len(),
            report.files_checked
        );
        ExitCode::from(1)
    }
}
