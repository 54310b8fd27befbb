//! A minimal, dependency-free, **offline** stand-in for the `criterion`
//! benchmark harness, covering the API surface this workspace uses.
//!
//! The build environment has no crates.io access, so the real `criterion`
//! cannot be vendored. This shim keeps the bench sources compatible
//! (`criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`)
//! and produces wall-clock timings with a fixed-budget sampling loop:
//! a short warm-up, then timed batches until either the per-bench time
//! budget or the sample count is exhausted — but never fewer than
//! [`MIN_SAMPLES`] (capped by the sample count), so a slow bench is not
//! summarised from three runs. Reported statistics are the median (the
//! mean of the two middle samples for an even count), minimum, and mean
//! of per-iteration times.
//!
//! It is intentionally simpler than criterion: no outlier analysis, no
//! HTML reports, no baseline comparison. Timings printed by this harness
//! are still good to ~1-5% on a quiet machine, which is enough for
//! order-of-magnitude comparisons such as the routing K-scaling table;
//! end-to-end figures come from `perfbench/`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group, e.g. `floyd_warshall/256`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter display value.
    #[must_use]
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: format!("{}/{}", function_name.into(), parameter) }
    }

    /// An id from a parameter alone.
    #[must_use]
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// The fewest timed samples a bench is summarised from, whatever its
/// time budget (unless its sample cap is lower): past the budget, slow
/// routines keep sampling until they have this many.
pub const MIN_SAMPLES: usize = 10;

/// Passed to the closure given to `bench_function`/`bench_with_input`;
/// `iter` runs and times the workload.
pub struct Bencher<'a> {
    /// Collected per-iteration times, nanoseconds.
    samples: &'a mut Vec<f64>,
    /// Total measurement budget.
    budget: Duration,
    /// Maximum number of timed samples.
    max_samples: usize,
}

impl Bencher<'_> {
    /// Runs `routine` repeatedly, recording one timing sample per call,
    /// until the sample cap is reached, or the time budget is spent and
    /// at least [`MIN_SAMPLES`] samples are in.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: at least one iteration, then until ~10% of the budget
        // (slow routines get exactly one so a whole group stays snappy).
        let warmup_end = Instant::now() + self.budget / 10;
        loop {
            black_box(routine());
            if Instant::now() >= warmup_end {
                break;
            }
        }
        let deadline = Instant::now() + self.budget;
        let min_samples = MIN_SAMPLES.min(self.max_samples);
        while self.samples.len() < self.max_samples {
            let start = Instant::now();
            black_box(routine());
            let elapsed = start.elapsed();
            self.samples.push(elapsed.as_secs_f64() * 1e9);
            if self.samples.len() >= min_samples && Instant::now() >= deadline {
                break;
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Summary statistics of one benchmark run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id (`group/function/param`).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Minimum per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Number of timed iterations.
    pub samples: usize,
}

fn summarize(id: String, samples: &mut [f64]) -> Measurement {
    assert!(!samples.is_empty(), "bencher collected no samples for {id}");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = samples.len() / 2;
    let median = if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    };
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Measurement { id, median_ns: median, min_ns: samples[0], mean_ns: mean, samples: samples.len() }
}

/// The harness entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
    budget: Duration,
    sample_size: usize,
    /// Every measurement taken so far (read by custom reporters).
    pub measurements: Vec<Measurement>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            budget: Duration::from_millis(400),
            sample_size: 100,
            measurements: Vec::new(),
        }
    }
}

impl Criterion {
    /// Reads the benchmark filter from the command line (`cargo bench --
    /// <filter>`); harness flags such as `--bench` are ignored.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Sets the per-benchmark wall-clock budget.
    #[must_use]
    pub fn measurement_time(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: None }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(&mut self, name: &str, f: F) -> &mut Self {
        let budget = self.budget;
        let sample_size = self.sample_size;
        self.run_one(name.to_string(), budget, sample_size, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        id: String,
        budget: Duration,
        max_samples: usize,
        mut f: F,
    ) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut samples = Vec::with_capacity(max_samples);
        let mut bencher = Bencher { samples: &mut samples, budget, max_samples };
        f(&mut bencher);
        let m = summarize(id, &mut samples);
        println!(
            "{:<48} time: [{} {} {}] ({} samples)",
            m.id,
            format_ns(m.min_ns),
            format_ns(m.median_ns),
            format_ns(m.mean_ns),
            m.samples
        );
        self.measurements.push(m);
    }
}

/// A group of benchmarks sharing a name prefix and sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Caps the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().name);
        let budget = self.criterion.budget;
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run_one(full, budget, samples, f);
        self
    }

    /// Benchmarks `f` with a borrowed input under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let full = format!("{}/{}", self.name, id.name);
        let budget = self.criterion.budget;
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run_one(full, budget, samples, |b| f(b, input));
        self
    }

    /// Ends the group (statistics were already reported per bench).
    pub fn finish(self) {}
}

/// Declares a group function that runs each listed benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(20));
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function("nop", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        group.finish();
        assert_eq!(c.measurements.len(), 2);
        assert!(c.measurements[0].id.starts_with("g/nop"));
        assert!(c.measurements[1].id.contains("sum/4"));
        assert!(c.measurements.iter().all(|m| m.min_ns >= 0.0 && m.samples > 0));
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_pair() {
        let even = summarize("even".into(), &mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median_ns, even.min_ns, even.mean_ns), (2.5, 1.0, 2.5));
        let odd = summarize("odd".into(), &mut [3.0, 1.0, 2.0]);
        assert_eq!(odd.median_ns, 2.0);
    }

    #[test]
    fn slow_benches_keep_sampling_to_the_minimum() {
        // Every call outlasts the whole budget: the loop still collects
        // `MIN_SAMPLES`, or the cap when that is lower.
        let slow = || std::thread::sleep(Duration::from_millis(2));
        for (cap, want) in [(100, MIN_SAMPLES), (4, 4)] {
            let mut c = Criterion::default().measurement_time(Duration::from_millis(1));
            let mut group = c.benchmark_group("slow");
            group.sample_size(cap);
            group.bench_function("sleep", |b| b.iter(slow));
            group.finish();
            assert_eq!(c.measurements[0].samples, want, "cap {cap}");
        }
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("match".to_string()),
            budget: Duration::from_millis(5),
            sample_size: 5,
            measurements: Vec::new(),
        };
        c.bench_function("other", |b| b.iter(|| 1));
        c.bench_function("match_me", |b| b.iter(|| 1));
        assert_eq!(c.measurements.len(), 1);
    }
}
