//! `cargo xtask` entry point.
//!
//! ```text
//! cargo xtask lint                         # human-readable report, exit 1 on violations
//! cargo xtask lint --json                  # machine-readable report on stdout
//! cargo xtask lint --update-fingerprints   # re-record lint/fingerprints.toml
//! cargo xtask lint --root <dir>            # lint a different tree (tests, CI)
//! cargo xtask promcheck [FILE]             # validate a Prometheus exposition (stdin default)
//! cargo xtask flightcheck FILE             # validate a crash dump (flight-recorder.jsonl)
//! cargo xtask healthcheck [FILE]           # validate a /healthz body (stdin default)
//! cargo xtask spancheck FILE               # validate a causal span JSONL dump
//! ```

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "xtask — workspace automation

USAGE:
    cargo xtask lint [--json] [--update-fingerprints] [--root <dir>]
    cargo xtask promcheck [FILE]
    cargo xtask flightcheck FILE
    cargo xtask healthcheck [FILE]
    cargo xtask spancheck FILE

The lint subcommand runs the CTUP domain-invariant checker (rules
L000–L005, see DESIGN.md §10; concurrency rules L006–L010, see
DESIGN.md §15; the line budget L011 over lint/budget.toml). promcheck validates a Prometheus text
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

/// `promcheck [FILE]` — stdin when no file is given.
fn promcheck(file: Option<&String>) -> ExitCode {
    let text = match file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("promcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("promcheck: stdin: {e}");
                return ExitCode::from(2);
            }
            buf
        }
    };
    let problems = xtask::obscheck::check_prom(&text);
    if problems.is_empty() {
        println!("promcheck: well-formed exposition");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("promcheck: {p}");
        }
        ExitCode::from(1)
    }
}

/// `healthcheck [FILE]` — stdin when no file is given.
fn healthcheck(file: Option<&String>) -> ExitCode {
    let text = match file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("healthcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("healthcheck: stdin: {e}");
                return ExitCode::from(2);
            }
            buf
        }
    };
    match xtask::obscheck::check_health(&text) {
        Ok(summary) => {
            println!(
                "healthcheck: status {:?}, degraded {}, {} session(s), queue depth {}, \
                 {} failover(s), epoch {}, build {}",
                summary.status,
                summary.degraded,
                summary.sessions,
                summary.queue_depth,
                summary.failovers,
                summary.epoch,
                summary.build
            );
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("healthcheck: {p}");
            }
            ExitCode::from(1)
        }
    }
}

/// `spancheck FILE`.
fn spancheck(file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spancheck: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    match xtask::spancheck::check_spans(&text) {
        Ok(summary) => {
            println!(
                "spancheck: {} span(s) across {} trace(s), {} complete chain(s)",
                summary.spans, summary.traces, summary.complete_chains
            );
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("spancheck: {p}");
            }
            ExitCode::from(1)
        }
    }
}

/// `flightcheck FILE`.
fn flightcheck(file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("flightcheck: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    match xtask::obscheck::check_flight(&text) {
        Ok(summary) => {
            println!("flightcheck: {} at seq {}", summary.outcome, summary.seq);
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("flightcheck: {p}");
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
        "lint" => {}
        "promcheck" => return promcheck(iter.next()),
        "healthcheck" => return healthcheck(iter.next()),
        "flightcheck" => match iter.next() {
            Some(file) => return flightcheck(file),
            None => {
                eprintln!("flightcheck requires a file\n\n{}", usage());
                return ExitCode::from(2);
            }
        },
        "spancheck" => match iter.next() {
            Some(file) => return spancheck(file),
            None => {
                eprintln!("spancheck requires a file\n\n{}", usage());
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("unknown subcommand {other:?}\n\n{}", usage());
            return ExitCode::from(2);
        }
    }

    let mut json = false;
    let mut update = false;
    // Default root: the workspace containing this crate; the alias in
    // .cargo/config.toml may invoke us from any subdirectory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--update-fingerprints" => update = true,
            "--root" => match iter.next() {
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

    if json {
        print!("{}", xtask::json::render(&report));
    } else {
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
        } else {
            println!(
                "xtask lint: {} violation(s) in {} files",
                report.violations.len(),
                report.files_checked
            );
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
