//! Benchmarks regenerating the paper's tables.
//!
//! `table1` — percentage of routes affected by the wormhole (Table I).
//! `table2` — route-discovery overhead, MR vs DSR (Table II).
//!
//! Each bench times a full regeneration of the artifact at bench scale
//! and prints the produced rows once.

use criterion::{criterion_group, criterion_main, Criterion};
use sam_bench::{regenerate, show, BENCH_RUNS};
use sam_experiments::store::RunStore;
use sam_experiments::{table1, table2};
use std::hint::black_box;
use std::time::Duration;

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_tables");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    show(&regenerate("table1"));
    group.bench_function("table1_affected", |b| {
        b.iter(|| black_box(table1::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    show(&regenerate("table2"));
    group.bench_function("table2_overhead", |b| {
        b.iter(|| black_box(table2::run(&mut RunStore::default(), BENCH_RUNS)))
    });

    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
