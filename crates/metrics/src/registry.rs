//! The live recording surface: [`Counter`]/[`Gauge`]/[`AtomicHisto`]
//! primitives, the array-indexed [`Registry`], scoped [`SpanGuard`]
//! timers and the cloneable [`MetricsHandle`].
//!
//! Record-path discipline:
//!
//! * **No hashing, no lookup** — a metric ID is its array slot.
//! * **No allocation** — counters and gauges are inline atomics; span
//!   histograms are allocated once at registry construction (and only
//!   for [`Registry::full`] profiles).
//! * **Relaxed atomics only** — safe under `etx-par` scoped-thread
//!   fan-outs; totals are exact because every mutation is a single
//!   atomic RMW, and nothing on the record path orders against anything
//!   else.
//! * **Cheap when off** — a disabled registry costs one relaxed bool
//!   load per record call.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::catalog::{CounterId, GaugeId, SpanId};
use crate::histo::{bucket_index, Histo, BUCKETS};
use crate::snapshot::MetricsSnapshot;

/// A monotonically increasing count (relaxed `AtomicU64`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-/peak-value metric (relaxed `AtomicU64`). Fleet merges take
/// the max, which is order-independent where a last-write would not be.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Stores `v` unconditionally.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raises the gauge to `v` if it is below it.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// The concurrent twin of [`Histo`]: same bucket scheme, every field a
/// relaxed atomic, so span timers and lane latency capture are safe
/// under scoped-thread fan-outs without locks. Snapshotting folds the
/// atomics into an exact [`Histo`].
#[derive(Debug)]
pub struct AtomicHisto {
    count: AtomicU64,
    /// Nanosecond sums fit comfortably: 2^64 ns ≈ 584 years.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for AtomicHisto {
    fn default() -> Self {
        AtomicHisto {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl AtomicHisto {
    /// An empty histogram (allocates its bucket array — construction is
    /// the one non-hot-path step).
    #[must_use]
    pub fn new() -> Self {
        AtomicHisto::default()
    }

    /// Folds one observation in.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Folds `n` observations of the same value in (one RMW per field,
    /// however large `n` is — how lane timers attribute a shared
    /// elapsed time to every query of a lane).
    #[inline]
    pub fn observe_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[bucket_index(v)].fetch_add(n, Relaxed);
    }

    /// Folds the current contents into an exact [`Histo`].
    pub fn snapshot_into(&self, out: &mut Histo) {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return;
        }
        // The per-bucket loads are individually atomic, not a
        // consistent cut; concurrent writers can make `count` and the
        // bucket sum momentarily disagree. Every reader in this
        // workspace snapshots quiescent registries (end of run / end of
        // bench window), where the fold is exact.
        let mut buckets = vec![0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Relaxed);
        }
        out.absorb_raw(
            count,
            u128::from(self.sum.load(Relaxed)),
            self.min.load(Relaxed),
            self.max.load(Relaxed),
            &buckets,
        );
    }
}

/// The static-registration metrics registry: one fixed slot per catalog
/// ID, all-`&self` recording, runtime on/off switches and an optional
/// span-histogram block.
///
/// Profiles:
///
/// * [`Registry::counters_only`] — counters + gauges live, spans
///   absent. ~200 bytes of atomics; cheap enough for one per fleet
///   shard (or even per simulation).
/// * [`Registry::full`] — everything live, including the ~15 span/
///   latency histograms (~230 KiB, allocated once here). For benches,
///   serve frontends and anything that wants phase timings.
/// * [`Registry::disabled`] — recording off; every record call is one
///   relaxed bool load. What [`MetricsHandle::noop`] points at.
#[derive(Debug)]
pub struct Registry {
    counters: [Counter; CounterId::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    spans: Option<Box<[AtomicHisto]>>,
    counting: AtomicBool,
    timing: AtomicBool,
}

impl Registry {
    fn with_profile(counting: bool, timing: bool, spans: bool) -> Self {
        Registry {
            counters: std::array::from_fn(|_| Counter::new()),
            gauges: std::array::from_fn(|_| Gauge::new()),
            spans: spans.then(|| (0..SpanId::COUNT).map(|_| AtomicHisto::new()).collect()),
            counting: AtomicBool::new(counting),
            timing: AtomicBool::new(timing),
        }
    }

    /// Counters and gauges live, no span histograms.
    #[must_use]
    pub fn counters_only() -> Self {
        Registry::with_profile(true, false, false)
    }

    /// Everything live: counters, gauges and span/latency histograms.
    #[must_use]
    pub fn full() -> Self {
        Registry::with_profile(true, true, true)
    }

    /// Recording off (the runtime no-op mode). Span histograms are
    /// still absent, so even a later [`Registry::set_timing`] keeps
    /// spans free.
    #[must_use]
    pub fn disabled() -> Self {
        Registry::with_profile(false, false, false)
    }

    /// Turns counter/gauge recording on or off at runtime (how the
    /// overhead bench interleaves instrumented and no-op windows over
    /// one registry).
    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Relaxed);
    }

    /// Turns span timing on or off at runtime. Has no effect on a
    /// registry built without span histograms.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Relaxed);
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if self.counting.load(Relaxed) {
            self.counters[id.index()].add(n);
        }
    }

    /// The current value of a counter.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()].get()
    }

    /// Stores a gauge value.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        if self.counting.load(Relaxed) {
            self.gauges[id.index()].set(v);
        }
    }

    /// Raises a gauge to `v` if it is below it.
    #[inline]
    pub fn gauge_raise(&self, id: GaugeId, v: u64) {
        if self.counting.load(Relaxed) {
            self.gauges[id.index()].raise(v);
        }
    }

    /// The current value of a gauge.
    #[must_use]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()].get()
    }

    /// `true` when span timing is live (histograms present and timing
    /// enabled) — the one branch every span site pays.
    #[inline]
    fn timing_live(&self) -> bool {
        self.timing.load(Relaxed) && self.spans.is_some()
    }

    /// Records one raw observation into a span/latency histogram.
    #[inline]
    pub fn observe(&self, id: SpanId, ns: u64) {
        self.observe_n(id, ns, 1);
    }

    /// Records `n` observations of the same value into a span/latency
    /// histogram.
    #[inline]
    pub fn observe_n(&self, id: SpanId, ns: u64, n: u64) {
        if self.timing_live() {
            if let Some(spans) = self.spans.as_deref() {
                spans[id.index()].observe_n(ns, n);
            }
        }
    }

    /// Opens a scoped timer: the guard records its elapsed nanoseconds
    /// into `id` on drop. When timing is off, no clock is read and the
    /// drop is free.
    #[inline]
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span(&self, id: SpanId) -> SpanGuard<'_> {
        if self.timing_live() {
            if let Some(spans) = self.spans.as_deref() {
                return SpanGuard { slot: Some((&spans[id.index()], Instant::now())) };
            }
        }
        SpanGuard { slot: None }
    }

    /// Reads the clock iff timing is live — the manual-timer half of
    /// the span API, for sites that attribute one elapsed interval to a
    /// *data-dependent* histogram (e.g. increase- vs decrease-repair)
    /// or divide it over `n` items.
    #[inline]
    #[must_use]
    pub fn timer(&self) -> Option<Instant> {
        self.timing_live().then(Instant::now)
    }

    /// Closes a [`Registry::timer`] into one observation of `id`.
    #[inline]
    pub fn observe_since(&self, id: SpanId, start: Option<Instant>) {
        if let Some(start) = start {
            self.observe(id, start.elapsed().as_nanos() as u64);
        }
    }

    /// Closes a [`Registry::timer`] into `n` observations of the
    /// per-item share of the elapsed time (how lane latency histograms
    /// attribute a lane pass to each of its queries). `n = 0` records
    /// nothing.
    #[inline]
    pub fn observe_share(&self, id: SpanId, start: Option<Instant>, n: u64) {
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(share) = ns.checked_div(n) {
                self.observe_n(id, share, n);
            }
        }
    }

    /// Folds the registry's current contents into an owned
    /// [`MetricsSnapshot`] (allocates; not a record-path call).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Merges the registry's current contents into `snap`.
    pub fn snapshot_into(&self, snap: &mut MetricsSnapshot) {
        for id in CounterId::ALL {
            snap.add_counter(id, self.counter(id));
        }
        for id in GaugeId::ALL {
            snap.raise_gauge(id, self.gauge(id));
        }
        if let Some(spans) = self.spans.as_deref() {
            snap.ensure_spans();
            for id in SpanId::ALL {
                if let Some(h) = snap.span_mut(id) {
                    spans[id.index()].snapshot_into(h);
                }
            }
        }
    }
}

/// A scoped span timer: records the elapsed nanoseconds between
/// [`Registry::span`] and drop. Carries no clock read (and records
/// nothing) when timing is off.
#[derive(Debug)]
#[must_use = "a span guard records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard<'a> {
    slot: Option<(&'a AtomicHisto, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((histo, start)) = self.slot.take() {
            histo.observe(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A cloneable, always-valid pointer to a [`Registry`].
///
/// `Default` (and [`MetricsHandle::noop`]) points at a process-wide
/// disabled registry, so instrumented structs can hold a handle
/// unconditionally — no `Option`, no branch beyond the registry's own
/// enabled check — and swap in a live registry via their `set_metrics`
/// hooks.
#[derive(Debug, Clone)]
pub struct MetricsHandle(Arc<Registry>);

impl Default for MetricsHandle {
    fn default() -> Self {
        MetricsHandle::noop()
    }
}

impl std::ops::Deref for MetricsHandle {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.0
    }
}

impl MetricsHandle {
    /// A handle to `registry`.
    #[must_use]
    pub fn new(registry: Arc<Registry>) -> Self {
        MetricsHandle(registry)
    }

    /// The shared no-op handle (a process-wide disabled registry).
    #[must_use]
    pub fn noop() -> Self {
        static NOOP: OnceLock<Arc<Registry>> = OnceLock::new();
        MetricsHandle(NOOP.get_or_init(|| Arc::new(Registry::disabled())).clone())
    }

    /// The underlying registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_and_read() {
        let reg = Registry::counters_only();
        reg.inc(CounterId::SimFrames);
        reg.add(CounterId::SimFrames, 4);
        reg.gauge_set(GaugeId::SimRoutingVersion, 7);
        reg.gauge_raise(GaugeId::SimRoutingVersion, 3);
        reg.gauge_raise(GaugeId::SimRoutingVersion, 11);
        assert_eq!(reg.counter(CounterId::SimFrames), 5);
        assert_eq!(reg.gauge(GaugeId::SimRoutingVersion), 11);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        reg.inc(CounterId::SimFrames);
        reg.observe(SpanId::SimFrameUpload, 100);
        {
            let _span = reg.span(SpanId::SimFrameRecompute);
        }
        assert_eq!(reg.counter(CounterId::SimFrames), 0);
        assert!(reg.timer().is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::SimFrames), 0);
        assert!(snap.span(SpanId::SimFrameUpload).is_none());
    }

    #[test]
    fn counters_only_registry_keeps_spans_free() {
        let reg = Registry::counters_only();
        // Even forcing timing on records nothing without histograms.
        reg.set_timing(true);
        reg.observe(SpanId::SimFrameUpload, 100);
        assert!(reg.snapshot().span(SpanId::SimFrameUpload).is_none());
    }

    #[test]
    fn spans_record_elapsed_time() {
        let reg = Registry::full();
        {
            let _guard = reg.span(SpanId::SimFrameUpload);
            std::hint::black_box(0u64);
        }
        reg.observe(SpanId::SimFrameUpload, 1_000);
        reg.observe_n(SpanId::ServeLatencyCost, 50, 4);
        let snap = reg.snapshot();
        let upload = snap.span(SpanId::SimFrameUpload).expect("span histograms present");
        assert_eq!(upload.count(), 2);
        let cost = snap.span(SpanId::ServeLatencyCost).expect("span histograms present");
        assert_eq!(cost.count(), 4);
        assert_eq!(cost.quantile_raw(0.5), 50);
    }

    #[test]
    fn runtime_toggles_gate_recording() {
        let reg = Registry::full();
        reg.set_counting(false);
        reg.set_timing(false);
        reg.inc(CounterId::ServeBatches);
        reg.observe(SpanId::ServeBatchSort, 10);
        assert_eq!(reg.counter(CounterId::ServeBatches), 0);
        reg.set_counting(true);
        reg.set_timing(true);
        reg.inc(CounterId::ServeBatches);
        reg.observe(SpanId::ServeBatchSort, 10);
        assert_eq!(reg.counter(CounterId::ServeBatches), 1);
        assert_eq!(reg.snapshot().span(SpanId::ServeBatchSort).unwrap().count(), 1);
    }

    #[test]
    fn noop_handle_is_shared_and_disabled() {
        let a = MetricsHandle::noop();
        let b = MetricsHandle::default();
        assert!(Arc::ptr_eq(a.registry(), b.registry()));
        a.inc(CounterId::SimFrames);
        assert_eq!(b.counter(CounterId::SimFrames), 0);
    }

    #[test]
    fn atomic_histo_matches_plain_histo() {
        let atomic = AtomicHisto::new();
        let mut plain = Histo::new();
        for v in [0u64, 1, 63, 64, 1_000, 123_456_789] {
            atomic.observe(v);
            plain.observe(v);
        }
        atomic.observe_n(42, 3);
        plain.observe_n(42, 3);
        let mut folded = Histo::new();
        atomic.snapshot_into(&mut folded);
        assert_eq!(folded, plain);
    }
}
