//! Fig. 3 — initialization time of the three algorithms at the Table III
//! defaults. The paper's shape: Naive fastest, OptCTUP close, BasicCTUP
//! worst (both grid schemes additionally compute per-cell lower bounds).

use criterion::{criterion_group, criterion_main, Criterion};
use ctup_bench::{build_setup, AlgKind, SetupParams};

fn bench_init(c: &mut Criterion) {
    let setup = build_setup(SetupParams::default());
    let mut group = c.benchmark_group("fig3_init");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in [
        AlgKind::Naive,
        AlgKind::NaiveIncremental,
        AlgKind::Basic,
        AlgKind::Opt,
    ] {
        group.bench_function(kind.label(), |b| {
            b.iter(|| {
                let alg = kind.build(&setup);
                criterion::black_box(alg.result())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_init);
criterion_main!(benches);
