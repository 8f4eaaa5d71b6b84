//! Fig. 9 — OptCTUP update cost varying Δ. Criterion measures the total;
//! the maintain/access split of the figure comes from the `reproduce`
//! binary, which reads the per-phase timers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};
use ctup_core::config::CtupConfig;

fn bench_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_delta");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for delta in [0i64, 2, 4, 6, 8, 10, 12] {
        let params = SetupParams {
            config: CtupConfig {
                delta,
                ..CtupConfig::paper_default()
            },
            ..SetupParams::default()
        };
        let mut setup = build_setup(params);
        let updates = setup.next_updates(20_000);
        let mut alg = AlgKind::Opt.build(&setup);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("OptCTUP", delta), &delta, |b, _| {
            b.iter(|| {
                let update = updates[i % updates.len()];
                i += 1;
                criterion::black_box(alg.handle_update(update))
                    .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
