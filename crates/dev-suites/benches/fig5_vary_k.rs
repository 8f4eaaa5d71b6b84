//! Fig. 5 — update cost of BasicCTUP vs OptCTUP varying `k`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};
use ctup_core::config::CtupConfig;

fn bench_vary_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_vary_k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [1usize, 5, 10, 15, 20, 25] {
        for kind in [AlgKind::Basic, AlgKind::Opt] {
            let params = SetupParams {
                config: CtupConfig::with_k(k),
                ..SetupParams::default()
            };
            let mut setup = build_setup(params);
            let updates = setup.next_updates(20_000);
            let mut alg = kind.build(&setup);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new(kind.label(), k), &k, |b, _| {
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

criterion_group!(benches, bench_vary_k);
criterion_main!(benches);
