//! Epoch publication: double-buffered `Arc` swap between one writer and
//! any number of readers, std-only.
//!
//! The writer ([`EpochPublisher`]) copies the router's
//! [`RoutingState`] into a private [`TableSnapshot`] buffer *outside*
//! any lock, wraps it in an `Arc`, and swaps it into
//! the shared slot under a mutex held only for the pointer exchange.
//! Readers ([`SnapshotReader::pin`]) clone the `Arc` out of the slot —
//! also just a pointer operation — and then query their pinned snapshot
//! for as long as they like. The recompute/fill work therefore never
//! holds the lock, and a pinned reader never observes a half-rebuilt
//! table: published snapshots are immutable by construction.
//!
//! Double buffering: the snapshot displaced by a publish is retained as
//! the writer's spare; if no reader still pins it by the next publish,
//! its `RoutingState` is refilled in place by `clone_from` (checked via
//! `Arc::get_mut`), so a steady-state publish loop performs **no heap
//! allocation** once both buffers have warmed to the fabric's
//! dimensions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use etx_metrics::{CounterId, GaugeId, MetricsHandle, SpanId};
use etx_routing::RoutingState;
use etx_sim::TableObserver;

use crate::snapshot::TableSnapshot;

/// A pinned, immutable snapshot — cheap to clone, safe to hold across
/// any number of republishes.
pub type PinnedSnapshot = Arc<TableSnapshot>;

/// The shared slot between one publisher and its readers.
#[derive(Debug)]
struct Slot {
    current: Mutex<PinnedSnapshot>,
    epoch: AtomicU64,
}

/// The writer half: owns the epoch counter and the spare buffer.
#[derive(Debug)]
pub struct EpochPublisher {
    slot: Arc<Slot>,
    /// The previously published snapshot, reclaimed for in-place refill
    /// when no reader pins it any more.
    spare: Option<PinnedSnapshot>,
    next_epoch: u64,
    /// Records `serve.publish` spans, the publish counter and the epoch
    /// gauge; the default no-op handle costs one relaxed load per
    /// publish.
    metrics: MetricsHandle,
}

/// The reader half: pin the current snapshot, or poll the epoch.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    slot: Arc<Slot>,
}

impl EpochPublisher {
    /// A fresh publisher/reader pair over an empty epoch-0 snapshot.
    #[must_use]
    pub fn new() -> (EpochPublisher, SnapshotReader) {
        let slot = Arc::new(Slot {
            current: Mutex::new(Arc::new(TableSnapshot::empty())),
            epoch: AtomicU64::new(0),
        });
        (
            EpochPublisher {
                slot: Arc::clone(&slot),
                spare: None,
                next_epoch: 0,
                metrics: MetricsHandle::default(),
            },
            SnapshotReader { slot },
        )
    }

    /// Points this publisher's metrics (`serve.publishes` counter,
    /// `serve.epoch` gauge, `serve.publish` span) at a registry.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// Another handle onto this publisher's readership.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader { slot: Arc::clone(&self.slot) }
    }

    /// The epoch of the most recent publish (0 before the first).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Copies `routing` into the next snapshot and publishes it
    /// atomically under a fresh epoch, which is returned. Readers
    /// pinned to earlier epochs are unaffected; new pins observe the
    /// complete new table or the complete old one, never a mix.
    pub fn publish(&mut self, routing: &RoutingState) -> u64 {
        // The span guard borrows the registry, so hold the handle
        // locally (an `Arc` bump) while the publish mutates `self`.
        let metrics = self.metrics.clone();
        let _publish_span = metrics.span(SpanId::ServePublish);
        metrics.inc(CounterId::ServePublishes);
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        metrics.gauge_raise(GaugeId::ServeEpoch, epoch);
        // Reclaim the spare for in-place refill, or allocate when a
        // reader still holds it (the reader keeps its epoch intact; we
        // simply cannot reuse the buffer).
        let mut snap = self.spare.take().unwrap_or_default();
        match Arc::get_mut(&mut snap) {
            Some(buffer) => buffer.fill_from(epoch, routing),
            None => {
                let mut fresh = TableSnapshot::empty();
                fresh.fill_from(epoch, routing);
                snap = Arc::new(fresh);
            }
        }
        let displaced = {
            let mut current = self.slot.current.lock().expect("publisher poisoned");
            std::mem::replace(&mut *current, snap)
        };
        self.slot.epoch.store(epoch, Ordering::Release);
        self.spare = Some(displaced);
        epoch
    }
}

impl SnapshotReader {
    /// The epoch of the most recently published snapshot (0 before the
    /// first publish). A lock-free `Acquire` load.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.slot.epoch.load(Ordering::Acquire)
    }

    /// Pins the current snapshot: an `Arc` clone under the slot mutex
    /// (held for the pointer copy only — no allocation, no table
    /// copying). The returned snapshot is immutable and remains valid
    /// across any number of concurrent republishes.
    #[must_use]
    pub fn pin(&self) -> PinnedSnapshot {
        self.slot.current.lock().expect("publisher poisoned").clone()
    }
}

/// The engine-side publish hook: every routing recompute becomes one
/// published epoch.
impl TableObserver for EpochPublisher {
    fn on_tables(
        &mut self,
        _version: u64,
        routing: &RoutingState,
        _report: &etx_routing::SystemReport,
    ) {
        let _ = self.publish(routing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::{topology, NodeId};
    use etx_routing::{Algorithm, Router, SystemReport};
    use etx_units::Length;

    fn state(level: u32) -> RoutingState {
        let graph = topology::ring(6, Length::from_centimetres(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(3)]];
        let mut report = SystemReport::fresh(6, 16);
        report.set_battery_level(NodeId::new(0), level);
        Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None)
    }

    #[test]
    fn epochs_increment_and_readers_observe_the_latest() {
        let (mut publisher, reader) = EpochPublisher::new();
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.pin().routing().node_count(), 0);

        let a = state(15);
        assert_eq!(publisher.publish(&a), 1);
        assert_eq!(reader.epoch(), 1);
        let pin = reader.pin();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(pin.routing(), &a);
    }

    #[test]
    fn pinned_snapshot_survives_republishes_untouched() {
        let (mut publisher, reader) = EpochPublisher::new();
        let a = state(15);
        let b = state(0); // drained node 0: different tables
        publisher.publish(&a);
        let pin_a = reader.pin();
        let copy_a = (*pin_a).clone();

        // Publish over it repeatedly; the pinned epoch must stay
        // byte-identical even while buffers rotate underneath.
        for _ in 0..4 {
            publisher.publish(&b);
            publisher.publish(&a);
        }
        assert_eq!(*pin_a, copy_a);
        assert_eq!(pin_a.epoch(), 1);
        assert_eq!(reader.epoch(), 9);
        assert_eq!(reader.pin().routing(), &a); // latest is `a`
        assert_ne!(reader.pin().routing(), &b);
    }

    #[test]
    fn double_buffer_reclaims_unpinned_spares() {
        let (mut publisher, reader) = EpochPublisher::new();
        let a = state(15);
        // With no outstanding pins, the two buffers just alternate.
        for i in 1..=10 {
            assert_eq!(publisher.publish(&a), i);
        }
        assert_eq!(reader.pin().epoch(), 10);
    }

    #[test]
    fn concurrent_pins_see_complete_snapshots() {
        let (mut publisher, reader) = EpochPublisher::new();
        let a = state(15);
        let b = state(0);
        publisher.publish(&a);

        let stop = Arc::new(AtomicU64::new(0));
        let worker = {
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let mut pins = 0u64;
                // Pin-then-check (not check-then-pin): on a loaded
                // single-core host this thread may get its first
                // timeslice only after the publisher finishes, and it
                // must still observe at least one pin.
                loop {
                    let pin = reader.pin();
                    // Every pin is exactly one of the two published
                    // tables — never a mix, never a partial rebuild.
                    let routing = pin.routing();
                    assert!(
                        routing == &a || routing == &b,
                        "pin at epoch {} observed a torn table",
                        pin.epoch()
                    );
                    pins += 1;
                    if stop.load(Ordering::Acquire) != 0 {
                        break;
                    }
                }
                pins
            })
        };
        for _ in 0..500 {
            publisher.publish(&b);
            publisher.publish(&a);
        }
        stop.store(1, Ordering::Release);
        let pins = worker.join().expect("reader thread");
        assert!(pins > 0);
    }
}
