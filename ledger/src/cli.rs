//! Command line: `bench` (one workload, the driver's contract), `run`
//! (all four, several times, into a result file) and `diff`.

use crate::json::Json;
use crate::layers::run_layers;
use crate::procfs;
use crate::results::{self, Gathered, RunSetup, Verdict};
use crate::spec;
use crate::sut;
use crate::workloads::{run_end_to_end, RunArgs, RunResult};
use std::path::PathBuf;

const USAGE: &str = "\
usage:
  ledger bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--scale full|tiny] [--state-root DIR] [--spans-out FILE]
      one run of one workload; the last line of stdout is the result object
  ledger run [--traced] [--runs K] [--seed N] [--seconds S] [--scale full|tiny]
             [--state-root DIR] [--out FILE]
      every workload, each run in its own process; writes a result file
  ledger diff OLD NEW [--seed N]
      one row per (workload, end-to-end metric); exit 1 on a regression
  ledger contract
      prints BENCHMARK.json as the code defines it
workloads: door-light door-durable engine-mem engine-disk";

/// Default seed (0xC7, the program's own default).
pub const DEFAULT_SEED: u64 = 199;

/// Parsed `--key value` flags plus positionals.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    /// Arguments that are not flags.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args`; flags named in `switches` take no value.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if switches.contains(&key) => {
                    flags.pairs.push((key.to_string(), "1".to_string()));
                }
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.pairs.push((key.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    /// The raw value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key` parsed, or `default`.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    /// Fails on a flag not in `known`.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

/// Where durable state goes unless `--state-root` says otherwise: inside
/// the build directory, which is inside the checkout and ignored by git.
pub fn default_state_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("ledger-state")
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn bench(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "scale",
        "state-root",
        "spans-out",
    ])?;
    let name = flags.get("workload").ok_or("bench needs --workload")?;
    let workload =
        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seconds: f64 = flags.parsed("seconds", 20.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let run = RunArgs {
        workload,
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        seconds,
        scale: flags.get("scale").unwrap_or("full").to_string(),
        state_root: flags
            .get("state-root")
            .map_or_else(default_state_root, PathBuf::from),
    };
    let result = match flags.parsed::<u8>("trace", 0)? {
        0 => run_end_to_end(&run)?,
        1 => run_layers(&run, flags.get("spans-out").map(std::path::Path::new))?,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    for note in &result.notes {
        println!("{note}");
    }
    for m in &result.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&result));
    Ok(if result.correct { 0 } else { 1 })
}

/// Runs `bench` in a child process (each run of each workload gets a
/// process of its own, so no run inherits another's heap, page cache
/// residue or peak RSS), passes its detail through, and returns the
/// parsed result object.
fn bench_in_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("bench")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a bench process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    Json::parse(last).map_err(|e| {
        format!(
            "bench {} ended with {} and no result line ({e})",
            args.join(" "),
            output.status
        )
    })
}

fn run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["traced"])?;
    flags.reject_unknown(&[
        "traced",
        "runs",
        "seed",
        "seconds",
        "scale",
        "state-root",
        "out",
    ])?;
    let setup = RunSetup {
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        runs: flags.parsed("runs", 1usize)?.max(1),
        seconds: flags.parsed("seconds", 20.0)?,
        scale: flags.get("scale").unwrap_or("full").to_string(),
        traced: flags.get("traced").is_some(),
    };
    let state_root = flags
        .get("state-root")
        .map_or_else(default_state_root, PathBuf::from);
    std::fs::create_dir_all(&state_root)
        .map_err(|e| format!("creating {}: {e}", state_root.display()))?;
    let out = flags.get("out").map(PathBuf::from);
    let mut gathered = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut g = Gathered::new();
        for i in 0..setup.runs {
            let mut child = vec![
                "--workload".to_string(),
                workload.name.to_string(),
                "--seed".into(),
                (setup.seed + i as u64).to_string(),
                "--seconds".into(),
                setup.seconds.to_string(),
                "--scale".into(),
                setup.scale.clone(),
                "--trace".into(),
                u8::from(setup.traced).to_string(),
                "--state-root".into(),
                state_root.display().to_string(),
            ];
            // The span dump of the first traced run of each workload is
            // kept next to the result file.
            if let (true, 0, Some(out)) = (setup.traced, i, &out) {
                child.push("--spans-out".into());
                child.push(
                    out.with_extension(format!("{}.spans.jsonl", workload.name))
                        .display()
                        .to_string(),
                );
            }
            g.add(&bench_in_child(&child)?)?;
        }
        print_summary(workload.name, &g);
        gathered.push((workload, g));
    }
    let file = results::result_file(
        procfs::fingerprint(&state_root),
        procfs::build(&sut::build_info()),
        &setup,
        &gathered,
    );
    if let Some(out) = &out {
        std::fs::write(out, file.render_pretty())
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("result file: {}", out.display());
    }
    let all_correct = gathered.iter().all(|(_, g)| g.correct && g.failed == 0.0);
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(all_correct)),
            ("runs_per_workload", Json::Num(setup.runs as f64)),
            ("claim", Json::Null),
        ])
        .render()
    );
    Ok(if all_correct { 0 } else { 1 })
}

fn print_summary(workload: &str, g: &Gathered) {
    println!(
        "== {workload}: {} run(s), {} of {} report(s) failed, {}",
        g.metrics.first().map_or(0, |(_, _, v)| v.len()),
        g.failed,
        g.attempted,
        if g.correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
    );
    for (name, unit, values) in &g.metrics {
        println!(
            "  {name:<34} median {:>16.4} {unit:<8} spread {:>6.2} %",
            crate::stats::median(values),
            crate::stats::iqr_share(values) * 100.0,
        );
    }
}

fn diff(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["seed"])?;
    let [old_path, new_path] = flags.positional.as_slice() else {
        return Err(format!("diff takes two result files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let seed = flags
        .get("seed")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --seed")?;
    let rows = results::diff(&load(old_path)?, &load(new_path)?, seed)?;
    println!(
        "{:<13} {:<19} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<13} {:<19} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.old,
            r.new,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label(),
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
    );
    Ok(i32::from(count(Verdict::Regressed) > 0))
}

/// Dispatches a command line; returns the exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("bench") => bench(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("contract") => {
            print!("{}", spec::contract().render_pretty());
            Ok(0)
        }
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}
