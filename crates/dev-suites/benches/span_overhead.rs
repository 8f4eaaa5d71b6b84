//! Microbenchmarks of the causal span layer (DESIGN.md §17). Tracing is
//! armed on every report when `--span-dump` is set, so the hot-path cost
//! of minting ids and recording stage spans must stay in the low tens of
//! nanoseconds — these benches price exactly that, plus the snapshot
//! merge the dump path pays once at shutdown.

use std::sync::Arc;
use std::thread;

use criterion::{criterion_group, criterion_main, Criterion};
use ctup_obs::{mint_trace, now_nanos, sample_trace, span_id, SpanSink, Stage};

fn bench_ids(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_ids");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut seq = 0u64;
    group.bench_function("mint_trace", |b| {
        b.iter(|| {
            seq = seq.wrapping_add(1);
            criterion::black_box(mint_trace(0xA1, seq))
        })
    });
    group.bench_function("sample_trace_1_in_8", |b| {
        b.iter(|| {
            seq = seq.wrapping_add(1);
            criterion::black_box(sample_trace(0xA1, seq, 8))
        })
    });
    group.bench_function("span_id", |b| {
        b.iter(|| {
            seq = seq.wrapping_add(1);
            criterion::black_box(span_id(seq, Stage::EngineApply, 3))
        })
    });
    group.finish();
}

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_record");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    // The serve path: one sink shared by client, door and engine.
    let sink = SpanSink::new(65_536);
    let mut seq = 0u64;
    group.bench_function("record_stage", |b| {
        b.iter(|| {
            seq = seq.wrapping_add(1);
            let t = now_nanos();
            sink.record_stage(
                mint_trace(0xA1, seq),
                Stage::EngineApply,
                0,
                t,
                t + 100,
                true,
            );
        })
    });

    // Contended recording: the sink's per-thread rings mean writers
    // should scale, not serialize.
    group.bench_function("record_stage_4_threads_x1k", |b| {
        b.iter(|| {
            let sink = Arc::new(SpanSink::new(65_536));
            let handles: Vec<_> = (0..4u64)
                .map(|tid| {
                    let sink = Arc::clone(&sink);
                    thread::spawn(move || {
                        for i in 0..1_000u64 {
                            let t = now_nanos();
                            sink.record_stage(
                                mint_trace(tid, i + 1),
                                Stage::ShardPhase,
                                tid as u32,
                                t,
                                t + 50,
                                false,
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                let _ = h.join();
            }
            criterion::black_box(sink.dropped())
        })
    });

    // The shutdown path: merge all rings into one ordered snapshot.
    let full = SpanSink::new(65_536);
    for i in 1..=60_000u64 {
        let t = now_nanos();
        full.record_stage(mint_trace(0xB2, i), Stage::QueueWait, 0, t, t + 10, true);
    }
    group.bench_function("snapshot_60k", |b| {
        b.iter(|| criterion::black_box(full.snapshot().spans.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_ids, bench_record);
criterion_main!(benches);
