//! One function per table/figure of the paper's evaluation (§VI), plus the
//! ablations described in DESIGN.md. Every function returns a printable
//! [`Table`]; the `reproduce` binary renders them.

use crate::harness::{build_setup, measure_updates, AlgKind, SetupParams};
use ctup_core::config::CtupConfig;
use ctup_core::oracle::Oracle;
use ctup_mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup_spatial::Grid;
use ctup_storage::{CachedStore, CellLocalStore, PagedDiskStore, PlaceStore};
use std::fmt::Write as _;
use std::sync::Arc;

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Updates fed to the grid schemes and the incremental baseline.
    pub updates: usize,
    /// Updates fed to the recompute-everything baseline (it is orders of
    /// magnitude slower, so fewer suffice for a stable average).
    pub naive_updates: usize,
}

impl Effort {
    /// The full runs used for EXPERIMENTS.md.
    pub fn full() -> Self {
        Effort {
            updates: 10_000,
            naive_updates: 300,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Effort {
            updates: 1_000,
            naive_updates: 30,
        }
    }
}

/// A printable experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("fig4", "table3", …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expectations from the paper, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let mut header = String::new();
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(header, "{c:>w$}  ");
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

fn us(nanos: f64) -> String {
    format!("{:.2}", nanos / 1_000.0)
}

fn ms(nanos: f64) -> String {
    format!("{:.2}", nanos / 1_000_000.0)
}

/// Table III — the default parameters, echoed for the record.
pub fn table3() -> Table {
    let p = SetupParams::default();
    Table {
        id: "table3",
        title: "Default parameter values".into(),
        columns: vec!["parameter".into(), "value".into()],
        rows: vec![
            vec!["Number of units (|U|)".into(), p.num_units.to_string()],
            vec!["Number of places (|P|)".into(), p.num_places.to_string()],
            vec!["Number of TUPs (k)".into(), "15".into()],
            vec![
                "Adjustable parameter (Delta)".into(),
                p.config.delta.to_string(),
            ],
            vec![
                "Unit protection range".into(),
                p.config.protection_radius.to_string(),
            ],
            vec!["Partition granularity".into(), p.granularity.to_string()],
        ],
        notes: vec!["matches Table III of the paper".into()],
    }
}

/// Fig. 3 — initialization time of the three algorithms at defaults.
pub fn fig3(_effort: Effort) -> Table {
    let setup = build_setup(SetupParams::default());
    // Warm the store and allocator once so the first measured construction
    // is not penalized by cold caches.
    drop(AlgKind::Naive.build(&setup));
    let mut rows = Vec::new();
    for kind in [
        AlgKind::Naive,
        AlgKind::NaiveIncremental,
        AlgKind::Basic,
        AlgKind::Opt,
    ] {
        // Best of five: construction is milliseconds, so scheduler noise on
        // a shared machine easily dominates a single sample.
        let mut alg = kind.build(&setup);
        for _ in 0..4 {
            let candidate = kind.build(&setup);
            if candidate.init_stats().wall < alg.init_stats().wall {
                alg = candidate;
            }
        }
        let init = alg.init_stats();
        rows.push(vec![
            kind.label().into(),
            ms(init.wall.as_nanos() as f64),
            init.storage.cell_reads.to_string(),
            init.safeties_computed.to_string(),
            alg.metrics().maintained_now.to_string(),
        ]);
    }
    Table {
        id: "fig3",
        title: "Initialization time (defaults)".into(),
        columns: vec![
            "algorithm".into(),
            "init_ms".into(),
            "cell_reads".into(),
            "safeties".into(),
            "maintained".into(),
        ],
        rows,
        notes: vec![
            "paper: Naive fastest, OptCTUP close, BasicCTUP worst".into(),
            "best of 5 constructions; see EXPERIMENTS.md for the shape discussion".into(),
        ],
    }
}

/// Fig. 4 — average update cost of the three algorithms at defaults.
pub fn fig4(effort: Effort) -> Table {
    let mut rows = Vec::new();
    for kind in [
        AlgKind::Naive,
        AlgKind::NaiveIncremental,
        AlgKind::Basic,
        AlgKind::Opt,
    ] {
        let mut setup = build_setup(SetupParams::default());
        let n = if kind == AlgKind::Naive {
            effort.naive_updates
        } else {
            effort.updates
        };
        let updates = setup.next_updates(n);
        let mut alg = kind.build(&setup);
        let summary = measure_updates(alg.as_mut(), &updates);
        rows.push(vec![
            kind.label().into(),
            us(summary.avg_update_nanos),
            format!("{:.3}", summary.cells_accessed_per_update),
            summary.maintained_places.to_string(),
            summary.updates.to_string(),
        ]);
    }
    Table {
        id: "fig4",
        title: "Average update cost (defaults)".into(),
        columns: vec![
            "algorithm".into(),
            "avg_us".into(),
            "cells/upd".into(),
            "maintained".into(),
            "updates".into(),
        ],
        rows,
        notes: vec!["paper: OptCTUP wins by a large margin; BasicCTUP beats Naive".into()],
    }
}

fn sweep_basic_vs_opt(
    id: &'static str,
    title: &str,
    xs: &[(String, SetupParams)],
    effort: Effort,
    note: &str,
) -> Table {
    let mut rows = Vec::new();
    for (label, params) in xs {
        let mut cols = vec![label.clone()];
        for kind in [AlgKind::Basic, AlgKind::Opt] {
            let mut setup = build_setup(params.clone());
            let updates = setup.next_updates(effort.updates);
            let mut alg = kind.build(&setup);
            let summary = measure_updates(alg.as_mut(), &updates);
            cols.push(us(summary.avg_update_nanos));
            cols.push(format!("{:.3}", summary.cells_accessed_per_update));
        }
        rows.push(cols);
    }
    Table {
        id,
        title: title.into(),
        columns: vec![
            "x".into(),
            "basic_us".into(),
            "basic_cells".into(),
            "opt_us".into(),
            "opt_cells".into(),
        ],
        rows,
        notes: vec![note.into()],
    }
}

/// Fig. 5 — update cost varying `k`.
pub fn fig5(effort: Effort) -> Table {
    let xs: Vec<(String, SetupParams)> = [1usize, 5, 10, 15, 20, 25]
        .iter()
        .map(|&k| {
            (
                format!("k={k}"),
                SetupParams {
                    config: CtupConfig::with_k(k),
                    ..SetupParams::default()
                },
            )
        })
        .collect();
    sweep_basic_vs_opt(
        "fig5",
        "Update cost varying k",
        &xs,
        effort,
        "paper: OptCTUP clearly below BasicCTUP across all k",
    )
}

/// Fig. 6 — update cost varying the partition granularity.
pub fn fig6(effort: Effort) -> Table {
    let xs: Vec<(String, SetupParams)> = [4u32, 8, 10, 16, 24, 32]
        .iter()
        .map(|&g| {
            (
                format!("G={g}"),
                SetupParams {
                    granularity: g,
                    ..SetupParams::default()
                },
            )
        })
        .collect();
    sweep_basic_vs_opt(
        "fig6",
        "Update cost varying partition granularity",
        &xs,
        effort,
        "paper: OptCTUP superior across granularities",
    )
}

/// Fig. 7 — update cost varying the protection range.
pub fn fig7(effort: Effort) -> Table {
    let xs: Vec<(String, SetupParams)> = [0.05f64, 0.075, 0.1, 0.15, 0.2]
        .iter()
        .map(|&r| {
            (
                format!("R={r}"),
                SetupParams {
                    config: CtupConfig {
                        protection_radius: r,
                        ..CtupConfig::paper_default()
                    },
                    ..SetupParams::default()
                },
            )
        })
        .collect();
    sweep_basic_vs_opt(
        "fig7",
        "Update cost varying protection range",
        &xs,
        effort,
        "paper: OptCTUP superior across ranges",
    )
}

/// Fig. 8 — the effect of DOO, varying the number of places.
pub fn fig8(effort: Effort) -> Table {
    let mut rows = Vec::new();
    for &num_places in &[5_000u32, 10_000, 15_000, 20_000, 25_000] {
        let mut cols = vec![format!("|P|={num_places}")];
        for doo in [true, false] {
            // A fine-grained stream (many small reports per street segment)
            // is where DOO matters: repeated P->P reports on the same cells
            // are exactly what it suppresses.
            let params = SetupParams {
                num_places,
                config: CtupConfig {
                    doo_enabled: doo,
                    ..CtupConfig::paper_default()
                },
                tick_dt: 0.1,
                ..SetupParams::default()
            };
            let mut setup = build_setup(params);
            let updates = setup.next_updates(effort.updates);
            let mut alg = AlgKind::Opt.build(&setup);
            let summary = measure_updates(alg.as_mut(), &updates);
            cols.push(us(summary.avg_update_nanos));
            cols.push(format!("{:.3}", summary.cells_accessed_per_update));
            cols.push(format!("{:.2}", summary.lb_decrements_per_update));
        }
        rows.push(cols);
    }
    Table {
        id: "fig8",
        title: "Effect of DOO varying |P| (OptCTUP with vs without DOO)".into(),
        columns: vec![
            "x".into(),
            "doo_us".into(),
            "doo_cells".into(),
            "doo_dec".into(),
            "nodoo_us".into(),
            "nodoo_cells".into(),
            "nodoo_dec".into(),
        ],
        rows,
        notes: vec![
            "paper: DOO clearly better, gap grows with |P|".into(),
            "dec columns (lower-bound decrements/update) are deterministic".into(),
        ],
    }
}

/// Fig. 9 — update cost split into maintenance and cell access, varying Δ.
pub fn fig9(effort: Effort) -> Table {
    let mut rows = Vec::new();
    for &delta in &[0i64, 2, 4, 6, 8, 10, 12] {
        let params = SetupParams {
            config: CtupConfig {
                delta,
                ..CtupConfig::paper_default()
            },
            ..SetupParams::default()
        };
        let mut setup = build_setup(params);
        let updates = setup.next_updates(effort.updates);
        let mut alg = AlgKind::Opt.build(&setup);
        let summary = measure_updates(alg.as_mut(), &updates);
        rows.push(vec![
            format!("D={delta}"),
            us(summary.avg_update_nanos),
            us(summary.avg_maintain_nanos),
            us(summary.avg_access_nanos),
            format!("{:.3}", summary.cells_accessed_per_update),
            summary.maintained_places.to_string(),
        ]);
    }
    Table {
        id: "fig9",
        title: "Update cost split (maintain vs access) varying Delta".into(),
        columns: vec![
            "x".into(),
            "total_us".into(),
            "maintain_us".into(),
            "access_us".into(),
            "cells/upd".into(),
            "maintained".into(),
        ],
        rows,
        notes: vec!["paper: maintenance cost grows with Delta, access cost shrinks".into()],
    }
}

/// Ablation — the DecHash purge-on-access soundness fix: cost and result
/// divergence with the purge disabled (the paper's literal Table II).
pub fn ablation_dechash_purge(effort: Effort) -> Table {
    let mut rows = Vec::new();
    for purge in [true, false] {
        let params = SetupParams {
            num_units: 40,
            num_places: 2_000,
            config: CtupConfig {
                purge_dechash_on_access: purge,
                delta: 0,
                mode: ctup_core::QueryMode::Threshold(0),
                ..CtupConfig::paper_default()
            },
            ..SetupParams::default()
        };
        let setup = build_setup(params);
        // A jiggle stream: every unit oscillates across its neighbourhood,
        // repeatedly flipping protection of nearby places while its region
        // keeps partially intersecting the same cells — the pattern that
        // leaves stale DecHash entries behind after cell accesses.
        let n = effort.updates.min(3_000);
        let updates: Vec<ctup_core::LocationUpdate> = (0..n)
            .map(|i| {
                let unit = i % setup.units.len();
                let base = setup.units[unit];
                let phase = (i / setup.units.len()).is_multiple_of(2);
                let offset = if phase { 0.05 } else { -0.05 };
                ctup_core::LocationUpdate {
                    unit: ctup_core::UnitId(unit as u32),
                    new: ctup_spatial::Point::new((base.x + offset).clamp(0.0, 1.0), base.y),
                }
            })
            .collect();
        let oracle = Oracle::from_store(setup.store.as_ref())
            .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"));
        let mut alg = AlgKind::Opt.build(&setup);
        let mut positions = setup.units.clone();
        let mut divergences = 0u64;
        let start = std::time::Instant::now();
        for &update in &updates {
            if let Err(e) = alg.handle_update(update) {
                panic!("benchmark store must be clean: {e}");
            }
            positions[update.unit.index()] = update.new;
            let got: Vec<i64> = alg.result().iter().map(|e| e.safety).collect();
            let want: Vec<i64> = oracle
                .result(&positions, 0.1, ctup_core::QueryMode::Threshold(0))
                .iter()
                .map(|e| e.safety)
                .collect();
            if got != want {
                divergences += 1;
            }
        }
        let avg = start.elapsed().as_nanos() as f64 / updates.len().max(1) as f64;
        rows.push(vec![
            if purge {
                "purge-on-access (sound)"
            } else {
                "no purge (literal Table II)"
            }
            .into(),
            us(avg),
            divergences.to_string(),
            updates.len().to_string(),
        ]);
    }
    Table {
        id: "ablation_purge",
        title: "DecHash purge-on-access: soundness fix vs literal Table II".into(),
        columns: vec![
            "variant".into(),
            "avg_us".into(),
            "wrong_results".into(),
            "updates".into(),
        ],
        rows,
        notes: vec![
            "avg_us includes the oracle check in both variants (overhead identical)".into(),
            "nonzero wrong_results for the literal variant demonstrates why the fix exists".into(),
        ],
    }
}

/// Ablation — two-level storage regime: memory-resident lower level vs a
/// simulated paged disk (Fig. 9's closing discussion).
pub fn ablation_disk(effort: Effort) -> Table {
    let mut rows = Vec::new();
    for &(label, latency) in &[
        ("memory", 0u64),
        ("disk 20us/page", 20_000),
        ("disk 100us/page", 100_000),
    ] {
        for &delta in &[0i64, 6, 12] {
            let wl_params = WorkloadParams {
                num_units: 150,
                places: PlaceGenConfig {
                    count: 15_000,
                    ..PlaceGenConfig::default()
                },
                seed: 0xC7,
                ..WorkloadParams::default()
            };
            let mut workload = Workload::generate(wl_params);
            let grid = Grid::unit_square(10);
            let store: Arc<dyn PlaceStore> = if latency == 0 {
                Arc::new(CellLocalStore::build(grid, workload.places_vec()))
            } else {
                Arc::new(PagedDiskStore::build(grid, workload.places_vec(), latency))
            };
            let config = CtupConfig {
                delta,
                ..CtupConfig::paper_default()
            };
            let units = workload.unit_positions();
            let mut alg = ctup_core::OptCtup::new(config, store, &units)
                .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"));
            let updates = crate::harness::stream(workload.next_updates(effort.updates.min(3_000)));
            let summary = measure_updates(&mut alg, &updates);
            rows.push(vec![
                format!("{label}, D={delta}"),
                us(summary.avg_update_nanos),
                us(summary.avg_access_nanos),
                format!("{:.3}", summary.cells_accessed_per_update),
            ]);
        }
    }
    Table {
        id: "ablation_disk",
        title: "OptCTUP under a paged-disk lower level (Fig. 9 discussion)".into(),
        columns: vec![
            "variant".into(),
            "total_us".into(),
            "access_us".into(),
            "cells/upd".into(),
        ],
        rows,
        notes: vec![
            "paper: on disk, cell-access time grows sharply but trends stay the same".into(),
            "larger Delta buys fewer accesses, which matters more as page latency grows".into(),
        ],
    }
}

/// Perf experiment — the sharded parallel engine: update cost at 1/2/4/8
/// shards over a simulated paged disk, with the cell-read cache off and
/// on. Updates are fed through batched ingest ([`crate::SHARD_BATCH`]
/// per batch) so one barrier covers a batch whose cell accesses spread
/// across all shards. The disk latency is busy-waited per page, so both
/// effects are real wall time: shards absorb it in parallel, the cache
/// skips it entirely on repeat reads of hot cells.
pub fn shard_scaling(effort: Effort) -> Table {
    let mut rows = Vec::new();
    let n = effort.updates.min(3_000);
    for cfg in crate::harness::shard_scaling_matrix() {
        let wl_params = WorkloadParams {
            num_units: 150,
            places: PlaceGenConfig {
                count: 15_000,
                ..PlaceGenConfig::default()
            },
            seed: 0xC7,
            ..WorkloadParams::default()
        };
        let mut workload = Workload::generate(wl_params);
        let grid = Grid::unit_square(10);
        let base: Arc<dyn PlaceStore> =
            Arc::new(PagedDiskStore::build(grid, workload.places_vec(), 20_000));
        let store: Arc<dyn PlaceStore> = if cfg.cache_pages == 0 {
            base.clone()
        } else {
            Arc::new(CachedStore::new(base.clone(), cfg.cache_pages))
        };
        let units = workload.unit_positions();
        let mut alg =
            ctup_core::ShardedCtup::new(CtupConfig::paper_default(), store, &units, cfg.shards)
                .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"));
        let updates = crate::harness::stream(workload.next_updates(n));
        let (summary, _) =
            crate::harness::measure_batched_observed(&mut alg, &updates, crate::SHARD_BATCH);
        let snap = base.stats().snapshot();
        rows.push(vec![
            cfg.label(),
            us(summary.avg_update_nanos),
            format!("{:.3}", summary.cells_accessed_per_update),
            snap.pages_read.to_string(),
            format!("{:.3}", snap.cache_hit_ratio()),
        ]);
    }
    Table {
        id: "shard_scaling",
        title: "Sharded engine: shards × cell-read cache on a 20us/page disk".into(),
        columns: vec![
            "variant".into(),
            "avg_us".into(),
            "cells/upd".into(),
            "pages_read".into(),
            "hit_ratio".into(),
        ],
        rows,
        notes: vec![
            "one shard, no cache is the sequential OptCTUP cost model on this disk".into(),
            "expected: avg_us shrinks with shards; pages_read shrinks with the cache".into(),
        ],
    }
}
