//! Parallel-primitive microbenchmarks: min-reduction and write-min.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rs_par::{atomic_vec, par_min, EpochMinArray};

fn primitives(c: &mut Criterion) {
    let n = 1 << 20;
    let data: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();

    let mut group = c.benchmark_group("primitives");
    group.sample_size(10);
    group.bench_function("par_min_1M", |b| b.iter(|| black_box(par_min(n, |i| data[i]))));
    // Priority-writes, split by outcome: a lowering pass where every write
    // succeeds (the atomic RMW path) and a failing pass where every offer
    // is at or above the cell (the load-first early return that most
    // relaxations take).
    group.bench_function("write_min_1M/lowering", |b| {
        let cells = atomic_vec(n, u64::MAX);
        // Each pass offers a base 128 below the last one's (data < 97), so
        // every cell is lowered again, as if fresh.
        let mut base = u64::MAX / 2;
        b.iter(|| {
            base -= 128;
            for (cell, &x) in cells.iter().zip(&data) {
                cell.write_min(base + x);
            }
            black_box(cells[0].load())
        })
    });
    group.bench_function("write_min_1M/failing", |b| {
        let cells = atomic_vec(n, 0);
        b.iter(|| {
            for (cell, &x) in cells.iter().zip(&data) {
                cell.write_min(x);
            }
            black_box(cells[0].load())
        })
    });
    group.bench_function("epoch_write_min_1M/lowering", |b| {
        let mut cells = EpochMinArray::new();
        cells.ensure(n);
        b.iter(|| {
            // O(1) logical reset: every cell reads as infinity again.
            cells.advance();
            for (i, &x) in data.iter().enumerate() {
                cells.write_min(i, x);
            }
            black_box(cells.load(0))
        })
    });
    group.bench_function("epoch_write_min_1M/failing", |b| {
        let mut cells = EpochMinArray::new();
        cells.ensure(n);
        for i in 0..n {
            cells.store(i, 0);
        }
        b.iter(|| {
            for (i, &x) in data.iter().enumerate() {
                cells.write_min(i, x);
            }
            black_box(cells.load(0))
        })
    });
    group.finish();
}

criterion_group!(benches, primitives);
criterion_main!(benches);
