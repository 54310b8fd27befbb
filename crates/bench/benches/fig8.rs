//! Criterion bench for the Fig 8 experiment: controller-count sweeps with
//! battery-powered controller banks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etx::experiments::fig8;

const BATTERY_PJ: f64 = 15_000.0;

fn bench_fig8(c: &mut Criterion) {
    let cells = fig8::run(&[4, 5], &[1, 2, 4], BATTERY_PJ);
    println!("\nFig 8 (scaled to {BATTERY_PJ} pJ/node):\n{}", fig8::render(&cells));

    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    for controllers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("controllers", controllers),
            &controllers,
            |b, &controllers| {
                b.iter(|| {
                    fig8::run(
                        std::hint::black_box(&[4]),
                        std::hint::black_box(&[controllers]),
                        BATTERY_PJ,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
