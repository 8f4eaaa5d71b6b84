//! Fig. 4 — average update cost of the three algorithms at the Table III
//! defaults. The paper's shape (log scale): OptCTUP wins by a large
//! margin; BasicCTUP beats Naive but stays far above OptCTUP.

use criterion::{criterion_group, criterion_main, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_update");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in [
        AlgKind::Naive,
        AlgKind::NaiveIncremental,
        AlgKind::Basic,
        AlgKind::Opt,
    ] {
        let mut setup = build_setup(SetupParams::default());
        let updates = setup.next_updates(20_000);
        let mut alg = kind.build(&setup);
        let mut i = 0usize;
        group.bench_function(kind.label(), |b| {
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

criterion_group!(benches, bench_update);
criterion_main!(benches);
