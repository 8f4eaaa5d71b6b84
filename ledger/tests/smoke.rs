//! Tier-1 coverage of the benchmark itself: every workload runs at
//! `--scale tiny`, passes its own checks, and prints exactly the metrics
//! `BENCHMARK.json` promises.

// Test helpers outside `#[test]` functions assert with `expect` too.
#![allow(clippy::expect_used)]

use ctup_ledger::json::Json;
use ctup_ledger::layers::run_layers;
use ctup_ledger::spec::{self, END_TO_END, WORKLOADS};
use ctup_ledger::sut::{self, Truth};
use ctup_ledger::workloads::{run_end_to_end, RunArgs, RunResult};
use std::path::PathBuf;

fn args(workload: &'static spec::Workload, seed: u64) -> RunArgs {
    RunArgs {
        workload,
        seed,
        seconds: 1.0,
        scale: "tiny".into(),
        state_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

fn names(result: &RunResult) -> Vec<(String, &'static str)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect()
}

fn assert_passed(result: &RunResult, what: &str) {
    assert!(
        result.correct && result.failed == 0 && result.attempted > 0,
        "{what}: {:#?}",
        result.notes
    );
    for m in &result.metrics {
        assert!(m.value.is_finite(), "{what}: {} is {}", m.name, m.value);
    }
}

fn end_to_end(workload: &'static spec::Workload) {
    // The default seed and a second one the constants were not tuned on.
    for seed in [199, 4242] {
        let result = run_end_to_end(&args(workload, seed)).expect("run completes");
        assert_passed(&result, workload.name);
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect();
        assert_eq!(names(&result), want);
        for m in &result.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} must never be 0",
                workload.name,
                m.name
            );
        }
    }
}

#[test]
fn door_light_end_to_end() {
    end_to_end(&WORKLOADS[0]);
}

#[test]
fn door_durable_end_to_end() {
    end_to_end(&WORKLOADS[1]);
}

#[test]
fn engine_mem_end_to_end() {
    end_to_end(&WORKLOADS[2]);
}

#[test]
fn engine_disk_end_to_end() {
    end_to_end(&WORKLOADS[3]);
}

#[test]
fn traced_runs_print_the_whole_per_layer_table() {
    for workload in &WORKLOADS {
        let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}.spans.jsonl", workload.name));
        let result = run_layers(&args(workload, 4242), Some(&spans)).expect("traced run completes");
        assert_passed(&result, workload.name);
        assert_eq!(names(&result), spec::per_layer(), "{}", workload.name);
        let dump = std::fs::read_to_string(&spans).expect("span dump written");
        let first = Json::parse(dump.lines().next().expect("at least one span")).expect("JSONL");
        assert_eq!(
            first.get("parent"),
            Some(&Json::Null),
            "the first span is a root"
        );
        // The workload's own path decides which layers its replay meets.
        let share = |name: &str| result.value(name).expect(name);
        match workload.sut {
            spec::Sut::Door { durable } => {
                assert!(share("layers.net_share") > 0.0);
                assert_eq!(share("layers.durable_share") > 0.0, durable);
                assert_eq!(share("layers.parallel_share"), 0.0);
            }
            spec::Sut::EngineMem => {
                assert_eq!(share("layers.net_share"), 0.0);
                assert_eq!(share("layers.parallel_share"), 0.0);
                assert!(share("layers.engine_share") > 0.5);
            }
            spec::Sut::EngineDisk => {
                assert_eq!(share("layers.net_share"), 0.0);
                assert!(share("layers.parallel_share") > 0.0);
                assert!(share("layers.storage_share") > 0.0);
            }
        }
    }
}

/// Counts the program makes on `engine-mem` inputs are a pure function of
/// the seed; only times may differ between two runs.
#[test]
fn engine_mem_counts_repeat_exactly() {
    let run = || run_layers(&args(&WORKLOADS[2], 199), None).expect("traced run completes");
    let (a, b) = (run(), run());
    for name in [
        "net.wire.bytes_per_report",
        "opt.cells_per_update",
        "opt.places_loaded_per_update",
        "opt.lb_decrements_per_update",
        "opt.doo_suppressed_share",
        "opt.maintained_places",
        "opt.result_change_share",
        "checkpoint.bytes",
        "parallel.fanout_per_update",
        "supervisor.checkpoints_taken",
    ] {
        assert_eq!(a.value(name), b.value(name), "{name}");
        assert!(a.value(name).is_some(), "{name}");
    }
}

#[test]
fn the_oracle_gate_fires_on_a_wrong_answer() {
    let inputs = sut::generate(&WORKLOADS[2], 199, 500);
    let units = sut::final_positions(&inputs.units, &inputs.stream);
    let truth = Truth::new(&inputs.places, units);
    let expected = truth.expected();
    assert_eq!(expected.len(), spec::K);
    truth
        .check(&expected, &expected)
        .expect("the oracle agrees with itself");

    // A deliberately corrupted expected result: the honest answer must now fail.
    let mut corrupted = expected.clone();
    corrupted[0].safety -= 1;
    assert!(truth.check(&expected, &corrupted).is_err());
    // A reported entry carrying the wrong safety for its place.
    let mut lying = expected.clone();
    lying.swap(0, spec::K - 1);
    let (a, b) = (lying[0].safety, lying[spec::K - 1].safety);
    lying[0].safety = b;
    lying[spec::K - 1].safety = a;
    if a != b {
        assert!(truth.check(&lying, &expected).is_err());
    }
    // A stale answer: the top-k before the stream was applied.
    let stale = Truth::new(&inputs.places, inputs.units.clone()).expected();
    if stale != expected {
        assert!(truth.check(&stale, &expected).is_err());
    }
}

#[test]
fn benchmark_json_states_what_the_ledger_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let contract = spec::contract();
    assert_eq!(
        Json::parse(&text).expect("BENCHMARK.json parses"),
        contract,
        "BENCHMARK.json is stale: regenerate it with `ledger contract`"
    );

    // The contract's own limits, held against the definitions.
    let count = |key: &str| {
        contract
            .get(key)
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    };
    assert!((2..=8).contains(&count("workloads")));
    assert!((1..=16).contains(&count("end_to_end")));
    assert!((1..=128).contains(&count("per_layer")));
    assert!((1..=32).contains(&count("command")));
    for w in &WORKLOADS {
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.why
        );
    }
    assert_eq!((END_TO_END[0].name, END_TO_END[0].unit), ("setup_s", "s"));
    assert!(!END_TO_END[0].higher_is_better);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));

    // One name grammar; every name used once; units in the unit grammar.
    let printed = spec::per_layer();
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
    names.extend(printed.iter().map(|(n, _)| n.clone()));
    for name in &names {
        assert!(spec::valid_name(name), "{name}");
    }
    let unique: std::collections::HashSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len());
    let units = printed
        .iter()
        .map(|(_, u)| *u)
        .chain(END_TO_END.iter().map(|m| m.unit));
    for unit in units {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}
