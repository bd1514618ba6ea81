//! Benchmarks for the design-choice ablations (DESIGN.md §Ablations) and
//! the end-to-end detection-quality experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use sam_bench::{regenerate, show, BENCH_RUNS};
use sam_experiments::store::RunStore;
use sam_experiments::{ablations, detection};
use std::hint::black_box;
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    show(&regenerate("ablations"));
    group.bench_function("ablation_window", |b| {
        b.iter(|| {
            black_box(ablations::collection_window(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_tunnel_len", |b| {
        b.iter(|| {
            black_box(ablations::tunnel_length(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_worm_mode", |b| {
        b.iter(|| {
            black_box(ablations::wormhole_mode(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_protocol_rule", |b| {
        b.iter(|| {
            black_box(ablations::protocol_rule(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_hidden_detection", |b| {
        b.iter(|| {
            black_box(ablations::hidden_detection(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_mobility", |b| {
        b.iter(|| black_box(ablations::mobility(&mut RunStore::default(), BENCH_RUNS)))
    });
    group.bench_function("ablation_rushing", |b| {
        b.iter(|| black_box(ablations::rushing(&mut RunStore::default(), BENCH_RUNS)))
    });
    group.bench_function("ablation_threshold", |b| {
        b.iter(|| {
            black_box(ablations::threshold_sweep(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });
    group.bench_function("ablation_loss", |b| {
        b.iter(|| {
            black_box(ablations::channel_loss(
                &mut RunStore::default(),
                BENCH_RUNS,
            ))
        })
    });

    show(&regenerate("detection"));
    group.bench_function("detection_end_to_end", |b| {
        b.iter(|| black_box(detection::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
