//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--quick] [--overload-out FILE] [--failover-out FILE] [experiment ...]
//! ```
//!
//! Runs the named experiments, then the bench of each output flag given.
//! With no experiment named, an output flag runs only its own bench, and
//! with neither names nor output flags every experiment runs. Experiment names:
//! `table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablation_purge ablation_disk
//! shard_scaling`.
//!
//! `--overload-out FILE` runs the networked overload sweep — a paced
//! feed client offering 0.5×/1×/2×/4× the calibrated engine capacity
//! through the real TCP front door — and writes accepted/shed
//! throughput and admission-wait quantiles per load point as JSON.
//!
//! `--failover-out FILE` runs the failover MTTR bench — engine kills
//! restarted from the durable slot + WAL tail behind a fresh door, and
//! primary kills absorbed by warm-standby promotion — and writes per-trial
//! outage durations for both recovery levels as JSON.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use ctup_bench::experiments::{self, Effort, Table};

type Runner = Box<dyn Fn(Effort) -> Table>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let effort = if quick {
        Effort::quick()
    } else {
        Effort::full()
    };
    // The output flags, in the order their benches run.
    const OUT_FLAGS: [&str; 2] = ["--overload-out", "--failover-out"];
    let mut outs: [Option<String>; 2] = Default::default();
    let mut selected: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(slot) = OUT_FLAGS.iter().position(|flag| flag == arg) {
            match iter.next() {
                Some(path) => outs[slot] = Some(path.clone()),
                None => {
                    eprintln!("{arg} requires a file path");
                    std::process::exit(2);
                }
            }
        } else if arg != "--quick" {
            selected.push(arg);
        }
    }
    let any_out = outs.iter().any(Option::is_some);
    let [overload_out_file, failover_out_file] = outs;

    let all: Vec<(&str, Runner)> = vec![
        ("table3", Box::new(|_| experiments::table3())),
        ("fig3", Box::new(experiments::fig3)),
        ("fig4", Box::new(experiments::fig4)),
        ("fig5", Box::new(experiments::fig5)),
        ("fig6", Box::new(experiments::fig6)),
        ("fig7", Box::new(experiments::fig7)),
        ("fig8", Box::new(experiments::fig8)),
        ("fig9", Box::new(experiments::fig9)),
        (
            "ablation_purge",
            Box::new(experiments::ablation_dechash_purge),
        ),
        ("ablation_disk", Box::new(experiments::ablation_disk)),
        ("shard_scaling", Box::new(experiments::shard_scaling)),
    ];

    let known: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
    for name in &selected {
        if !known.contains(name) {
            eprintln!("unknown experiment {name:?}; known: {}", known.join(" "));
            std::process::exit(2);
        }
    }

    println!(
        "CTUP reproduction — {} mode ({} updates per series)\n",
        if quick { "quick" } else { "full" },
        effort.updates
    );
    for (name, run) in &all {
        let wanted = if selected.is_empty() {
            !any_out
        } else {
            selected.contains(name)
        };
        if !wanted {
            continue;
        }
        let start = std::time::Instant::now();
        let table = run(effort);
        println!("{}", table.render());
        println!("  [{name} took {:.1}s]\n", start.elapsed().as_secs_f64());
    }

    if let Some(path) = overload_out_file {
        let mut config = ctup_core::net::overload::OverloadConfig::default();
        if quick {
            config.reports_per_point = 400;
        }
        let report = match ctup_core::net::overload::run_sweep(&config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("overload sweep failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        for p in &report.points {
            println!(
                "  overload x{:.1}: offered {} accepted_hz {:.0} shed_hz {:.0} p99_wait {:.1}ms",
                p.multiplier,
                p.offered,
                p.accepted_hz,
                p.shed_hz,
                p.p99_wait_nanos as f64 / 1e6
            );
        }
        println!("overload sweep written to {path}");
    }
    if let Some(path) = failover_out_file {
        let mut config = ctup_core::net::mttr::MttrConfig::default();
        if quick {
            config.trials = 2;
            config.reports = 300;
            config.kill_at = 150;
        }
        let report = match ctup_core::net::mttr::run_mttr_bench(&config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("failover MTTR bench failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        let heal = report.self_heal_ms();
        let promote = report.promotion_ms();
        for (i, (h, p)) in heal.iter().zip(&promote).enumerate() {
            println!("  trial {i}: restart from dir {h:.1}ms, promotion {p:.1}ms");
        }
        println!("failover MTTR bench written to {path}");
    }
}
