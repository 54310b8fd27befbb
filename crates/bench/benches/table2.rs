//! Criterion bench for the Table 2 experiment: simulated EAR (ideal
//! batteries) against the Theorem-1 analytical bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etx::experiments::table2;
use etx::prelude::*;

const BATTERY_PJ: f64 = 15_000.0;

fn bench_table2(c: &mut Criterion) {
    let rows = table2::run(&[4, 5], BATTERY_PJ);
    println!("\nTable 2 (scaled to {BATTERY_PJ} pJ/node):\n{}", table2::render(&rows));

    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("simulate", 4), &4usize, |b, &mesh| {
        b.iter(|| table2::run(std::hint::black_box(&[mesh]), BATTERY_PJ));
    });
    // The closed-form side on its own is effectively free; keep it
    // measured so regressions in the bound path are visible.
    group.bench_function("theorem1_closed_form", |b| {
        let inputs = BoundInputs::uniform_comm(&AppSpec::aes(), Energy::from_picojoules(116.71));
        b.iter(|| {
            upper_bound(std::hint::black_box(&inputs), Energy::from_picojoules(60_000.0), 64)
                .expect("valid inputs")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
