//! Criterion bench for the Fig 7 experiment: EAR vs SDR simulation runs.
//!
//! Regenerate the full paper-scale figure with the `repro` binary; this
//! bench times scaled-down runs of the same pipeline (so `cargo bench`
//! stays tractable) and prints the resulting series once per session.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etx::experiments::fig7;

/// Scaled battery budget: same physics, shorter lifetime.
const BATTERY_PJ: f64 = 15_000.0;

fn bench_fig7(c: &mut Criterion) {
    // Print the series this bench regenerates (scaled).
    let rows = fig7::run(&[4, 5, 6], BATTERY_PJ);
    println!("\nFig 7 (scaled to {BATTERY_PJ} pJ/node):\n{}", fig7::render(&rows));

    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    for mesh in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("ear_vs_sdr", mesh), &mesh, |b, &mesh| {
            b.iter(|| fig7::run(std::hint::black_box(&[mesh]), BATTERY_PJ));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
