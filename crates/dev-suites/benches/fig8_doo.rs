//! Fig. 8 — the effect of the Decrease-Once Optimization: OptCTUP with vs
//! without DOO, varying the number of places.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};
use ctup_core::config::CtupConfig;

fn bench_doo(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_doo");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for num_places in [5_000u32, 10_000, 15_000, 20_000, 25_000] {
        for (label, doo) in [("OptCTUP-DOO", true), ("OptCTUP-noDOO", false)] {
            let params = SetupParams {
                num_places,
                config: CtupConfig {
                    doo_enabled: doo,
                    ..CtupConfig::paper_default()
                },
                ..SetupParams::default()
            };
            let mut setup = build_setup(params);
            let updates = setup.next_updates(20_000);
            let mut alg = AlgKind::Opt.build(&setup);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new(label, num_places), &num_places, |b, _| {
                b.iter(|| {
                    let update = updates[i % updates.len()];
                    i += 1;
                    criterion::black_box(alg.handle_update(update))
                        .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_doo);
criterion_main!(benches);
