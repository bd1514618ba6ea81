//! Benchmarks regenerating every figure of the paper's evaluation
//! (Figs. 5–15). One bench per figure; each prints the regenerated
//! rows/series once and then times the regeneration.

use criterion::{criterion_group, criterion_main, Criterion};
use sam_bench::{regenerate, show, BENCH_RUNS};
use sam_experiments::store::RunStore;
use sam_experiments::{fig10, fig11, fig12, fig13, fig14, fig15, fig5, fig6, fig7, fig8, fig9};
use std::hint::black_box;
use std::time::Duration;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_figures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    show(&regenerate("fig5"));
    group.bench_function("fig5_pmf", |b| {
        b.iter(|| black_box(fig5::run(&mut RunStore::default(), 0)))
    });

    show(&regenerate("fig6"));
    group.bench_function("fig6_pmax", |b| {
        b.iter(|| black_box(fig6::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig7"));
    group.bench_function("fig7_delta", |b| {
        b.iter(|| black_box(fig7::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig8"));
    group.bench_function("fig8_long_uniform", |b| {
        b.iter(|| black_box(fig8::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig9"));
    group.bench_function("fig9_random_topology", |b| {
        b.iter(|| black_box(fig9::run(0)))
    });

    show(&regenerate("fig10"));
    group.bench_function("fig10_random", |b| {
        b.iter(|| black_box(fig10::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig11"));
    group.bench_function("fig11_range_pmax", |b| {
        b.iter(|| black_box(fig11::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig12"));
    group.bench_function("fig12_range_delta", |b| {
        b.iter(|| black_box(fig12::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig13"));
    group.bench_function("fig13_proto_delta", |b| {
        b.iter(|| black_box(fig13::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig14"));
    group.bench_function("fig14_proto_pmax", |b| {
        b.iter(|| black_box(fig14::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("fig15"));
    group.bench_function("fig15_multi_wormhole", |b| {
        b.iter(|| black_box(fig15::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
