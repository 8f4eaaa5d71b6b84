//! The paper's Figs. 3–9 (§VI) as count tests.
//!
//! The paper plots wall time, but argues from work: cells accessed,
//! places loaded, lower-bound decrements and places maintained. Those
//! counts are a function of the seed, so each figure here is one
//! deterministic test over `Metrics::since` that asserts the paper's
//! ordering, or pins the measured departure EXPERIMENTS.md names. No
//! test reads a clock.
//!
//! The world is Table III scaled down so a debug build runs the file in
//! seconds: 3 000 places, 40 units, 400 updates per point, granularity
//! 10, seed `0xC7`, and the paper's query (k = 15, R = 0.1, Δ = 6). The
//! Table III numbers themselves come from `ctup run --format json`
//! (EXPERIMENTS.md).
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::naive::{NaiveIncremental, NaiveRecompute};
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore, StorageError};
use std::sync::Arc;

const UPDATES: usize = 400;

/// An engine constructor: `OptCtup::new`, `BasicCtup::new`, ….
type Build<A> = fn(CtupConfig, Arc<dyn PlaceStore>, &[Point]) -> Result<A, StorageError>;

/// One point of a sweep: the workload and the query.
#[derive(Clone)]
struct Setting {
    places: u32,
    granularity: u32,
    tick_dt: f64,
    config: CtupConfig,
}

impl Default for Setting {
    fn default() -> Self {
        Setting {
            places: 3_000,
            granularity: 10,
            tick_dt: 1.0,
            config: CtupConfig::paper_default(),
        }
    }
}

/// What one engine did at one setting.
#[derive(Debug, Clone, Copy)]
struct Counts {
    /// Cell reads at construction.
    init_cell_reads: u64,
    /// Places maintained right after construction.
    init_maintained: u64,
    /// Cells accessed per update.
    cells: f64,
    /// Lower-bound decrements per update.
    decrements: f64,
    /// Places maintained after the last update.
    maintained: u64,
}

fn measure<A: CtupAlgorithm>(build: Build<A>, setting: &Setting) -> Counts {
    let mut workload = Workload::generate(WorkloadParams {
        num_units: 40,
        places: PlaceGenConfig {
            count: setting.places,
            ..PlaceGenConfig::default()
        },
        tick_dt: setting.tick_dt,
        seed: 0xC7,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(setting.granularity),
        workload.places_vec(),
    ));
    let units = workload.unit_positions();
    let mut alg = build(setting.config.clone(), store, &units).expect("clean store");
    let init = alg.metrics().clone();
    for update in workload.next_updates(UPDATES) {
        alg.handle_update(LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        })
        .expect("clean store");
    }
    let run = alg.metrics().since(&init);
    let per_update = |n: u64| n as f64 / UPDATES as f64;
    Counts {
        init_cell_reads: alg.init_stats().storage.cell_reads,
        init_maintained: init.maintained_now,
        cells: per_update(run.cells_accessed),
        decrements: per_update(run.lb_decrements),
        maintained: run.maintained_now,
    }
}

/// Cells per update of BasicCTUP and of OptCTUP at each setting.
fn basic_and_opt(settings: &[Setting]) -> Vec<(f64, f64)> {
    settings
        .iter()
        .map(|s| {
            (
                measure(BasicCtup::new, s).cells,
                measure(OptCtup::new, s).cells,
            )
        })
        .collect()
}

fn strictly_rising(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[0] < w[1])
}

fn strictly_falling(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[0] > w[1])
}

fn with_config(config: CtupConfig) -> Setting {
    Setting {
        config,
        ..Setting::default()
    }
}

/// Fig. 3, initialization. The paper has Naive fastest, OptCTUP close and
/// BasicCTUP worst. In counts: Naive reads every cell once; both grid
/// schemes read the same cells (every cell for its exact bound, then the
/// illuminated ones again), and OptCTUP keeps fewer of the places it read,
/// having evicted those at or above `SK + Δ`. NaiveInc, which the paper
/// does not plot, maintains every place.
#[test]
fn fig3_grid_schemes_read_the_same_cells_at_init_and_opt_keeps_fewer() {
    let setting = Setting::default();
    let cells = u64::from(setting.granularity).pow(2);
    let naive = measure(NaiveRecompute::new, &setting);
    let naive_inc = measure(NaiveIncremental::new, &setting);
    let basic = measure(BasicCtup::new, &setting);
    let opt = measure(OptCtup::new, &setting);
    assert_eq!(naive.init_cell_reads, cells);
    assert_eq!(naive.init_maintained, 0);
    assert_eq!(naive_inc.init_cell_reads, cells);
    assert_eq!(naive_inc.init_maintained, u64::from(setting.places));
    assert_eq!(basic.init_cell_reads, opt.init_cell_reads);
    assert!(opt.init_cell_reads > cells, "{opt:?}");
    assert!(
        opt.init_maintained < basic.init_maintained,
        "basic {basic:?}, opt {opt:?}"
    );
}

/// Fig. 4, update cost at the defaults: OptCTUP wins by a large margin.
/// The two baselines read no cell after init; NaiveInc pays instead by
/// maintaining all |P| safeties.
#[test]
fn fig4_opt_accesses_a_fraction_of_basics_cells_per_update() {
    let setting = Setting::default();
    let basic = measure(BasicCtup::new, &setting);
    let opt = measure(OptCtup::new, &setting);
    let naive_inc = measure(NaiveIncremental::new, &setting);
    assert!(
        2.0 * opt.cells < basic.cells,
        "basic {basic:?}, opt {opt:?}"
    );
    assert_eq!(naive_inc.maintained, u64::from(setting.places));
    assert!(opt.maintained < naive_inc.maintained, "{opt:?}");
}

/// Fig. 5, varying k: OptCTUP below BasicCTUP at every k. Departure
/// (EXPERIMENTS.md): BasicCTUP's cells per update fall as k grows, so
/// the expectation that accesses rise with k does not hold here.
#[test]
fn fig5_opt_is_below_basic_at_every_k_and_basic_falls_with_k() {
    let settings: Vec<Setting> = [1, 5, 10, 15, 20, 25]
        .into_iter()
        .map(|k| with_config(CtupConfig::with_k(k)))
        .collect();
    let series = basic_and_opt(&settings);
    assert!(series.iter().all(|(b, o)| o < b), "{series:?}");
    let basic: Vec<f64> = series.iter().map(|(b, _)| *b).collect();
    assert!(strictly_falling(&basic), "{series:?}");
}

/// Fig. 6, varying the granularity G: OptCTUP below BasicCTUP at every G;
/// OptCTUP's cells per update rise with G, as smaller cells are crossed
/// by more protection-range boundaries.
#[test]
fn fig6_opt_is_below_basic_at_every_granularity_and_rises_with_it() {
    let settings: Vec<Setting> = [4, 8, 10, 16, 24, 32]
        .into_iter()
        .map(|granularity| Setting {
            granularity,
            ..Setting::default()
        })
        .collect();
    let series = basic_and_opt(&settings);
    assert!(series.iter().all(|(b, o)| o < b), "{series:?}");
    let opt: Vec<f64> = series.iter().map(|(_, o)| *o).collect();
    assert!(strictly_rising(&opt), "{series:?}");
}

/// Fig. 7, varying the protection range R: OptCTUP below BasicCTUP at
/// every R; OptCTUP's cells per update rise with R.
#[test]
fn fig7_opt_is_below_basic_at_every_range_and_rises_with_it() {
    let settings: Vec<Setting> = [0.05, 0.075, 0.1, 0.15, 0.2]
        .into_iter()
        .map(|protection_radius| {
            with_config(CtupConfig {
                protection_radius,
                ..CtupConfig::paper_default()
            })
        })
        .collect();
    let series = basic_and_opt(&settings);
    assert!(series.iter().all(|(b, o)| o < b), "{series:?}");
    let opt: Vec<f64> = series.iter().map(|(_, o)| *o).collect();
    assert!(strictly_rising(&opt), "{series:?}");
}

/// Fig. 8, DOO varying |P| over a fine-grained stream (`tick_dt` 0.1),
/// where a unit's region keeps partially covering the same cells: with
/// DOO, OptCTUP applies fewer decrements and accesses fewer cells at
/// every |P|. Departure (EXPERIMENTS.md): the gap does not grow with
/// |P|. Without DOO the decrements are the same at every |P|, since
/// which cells a range crosses does not depend on the places, and the
/// ratio of cells accessed is smaller at the largest |P| than at the
/// smallest.
#[test]
fn fig8_doo_lowers_decrements_and_cells_at_every_place_count() {
    let fine = |places, doo_enabled| Setting {
        places,
        tick_dt: 0.1,
        config: CtupConfig {
            doo_enabled,
            ..CtupConfig::paper_default()
        },
        ..Setting::default()
    };
    let series: Vec<(Counts, Counts)> = [1_000, 2_000, 3_000, 4_000, 5_000]
        .into_iter()
        .map(|places| {
            (
                measure(OptCtup::new, &fine(places, true)),
                measure(OptCtup::new, &fine(places, false)),
            )
        })
        .collect();
    for (on, off) in &series {
        assert!(on.decrements < off.decrements, "DOO {on:?}, no DOO {off:?}");
        assert!(on.cells < off.cells, "DOO {on:?}, no DOO {off:?}");
    }
    let (first, last) = (series[0], series[series.len() - 1]);
    assert!(
        series
            .iter()
            .all(|(_, off)| off.decrements == first.1.decrements),
        "{series:?}"
    );
    let ratio = |(on, off): (Counts, Counts)| off.cells / on.cells;
    assert!(ratio(last) < ratio(first), "{series:?}");
}

/// Fig. 9, varying Δ: a larger Δ keeps more places maintained and buys
/// fewer cell accesses, strictly at every step. This is the trade the
/// paper's maintain/access split shows.
#[test]
fn fig9_delta_trades_cell_accesses_for_maintained_places() {
    let series: Vec<Counts> = [0, 2, 4, 6, 8, 10, 12]
        .into_iter()
        .map(|delta| {
            let setting = with_config(CtupConfig {
                delta,
                ..CtupConfig::paper_default()
            });
            measure(OptCtup::new, &setting)
        })
        .collect();
    let cells: Vec<f64> = series.iter().map(|c| c.cells).collect();
    assert!(strictly_falling(&cells), "{series:?}");
    assert!(
        series.windows(2).all(|w| w[0].maintained < w[1].maintained),
        "{series:?}"
    );
}
