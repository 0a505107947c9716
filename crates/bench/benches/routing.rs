//! Criterion micro-benchmarks for the router the compiler ships: the
//! penalty-weighted path search and the space search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftqc_arch::Coord;
use ftqc_route::{CellGrid, CostModel, RouteQueries, Router};
use std::hint::black_box;

/// A `side × side` grid with a data block occupying the centre, like an
/// r=4 layout.
fn occupied_block(side: i32) -> CellGrid {
    let mut cells = CellGrid::new(side as u32, side as u32);
    let mut q = 0;
    for r in 1..side - 1 {
        for c in 1..side - 1 {
            cells.place(Coord::new(r, c), q);
            q += 1;
        }
    }
    cells
}

fn bench_find_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_path");
    group.sample_size(30);
    for side in [12i32, 21, 34] {
        let cells = occupied_block(side);
        let mut router = Router::new(CostModel::default());
        let from = Coord::new(0, 0);
        let to = Coord::new(side - 1, side - 1);
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, _| {
            b.iter(|| black_box(router.find_path(&cells, &[], black_box(from), black_box(to))))
        });
    }
    group.finish();
}

fn bench_space_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_search");
    group.sample_size(30);
    let side = 21i32;
    let cells = occupied_block(side);
    let mut router = Router::new(CostModel::default());
    let target = Coord::new(side / 2, side / 2);
    group.bench_function("packed_centre", |b| {
        b.iter(|| black_box(router.space_search(&cells, &[], black_box(target))))
    });
    group.finish();
}

criterion_group!(benches, bench_find_path, bench_space_search);
criterion_main!(benches);
