//! Fig. 6 — update cost of BasicCTUP vs OptCTUP varying the partition
//! granularity (the grid is `G × G`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};

fn bench_vary_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_vary_granularity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for granularity in [4u32, 8, 10, 16, 24, 32] {
        for kind in [AlgKind::Basic, AlgKind::Opt] {
            let params = SetupParams {
                granularity,
                ..SetupParams::default()
            };
            let mut setup = build_setup(params);
            let updates = setup.next_updates(20_000);
            let mut alg = kind.build(&setup);
            let mut i = 0usize;
            group.bench_with_input(
                BenchmarkId::new(kind.label(), granularity),
                &granularity,
                |b, _| {
                    b.iter(|| {
                        let update = updates[i % updates.len()];
                        i += 1;
                        criterion::black_box(alg.handle_update(update))
                            .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_vary_granularity);
criterion_main!(benches);
