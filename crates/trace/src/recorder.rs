//! Recording: per-frame digests and the full / ring-buffer writers.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use etx_graph::{Fnv64, NodeBitset, NodeId};
use etx_routing::{RecomputeStats, SystemReport};
use etx_sim::{FrameRecorder, FrameSnapshot};

use crate::format::{encode_header, encode_record_parts, Trace, TraceHeader};
use crate::wire::put_u32;
use crate::TraceError;

/// The two digests of one frame (see [`TraceScratch::digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDigest {
    /// Semantic state: battery buckets, live/deadlock membership,
    /// routing version. Identical across recompute strategies and any
    /// other cost-only knob.
    pub state: u64,
    /// Recompute cost counters. Legitimately differs between `Full`
    /// and `Auto` runs of the same scenario.
    pub cost: u64,
}

/// Starting capacity for per-frame encode buffers. A steady frame
/// record (digests, counters, a handful of events) is well under this,
/// so varint-width growth late in a run (cycle numbers crossing a
/// 7-bit boundary) never forces a reallocation mid-recording.
const RECORD_BUF_INITIAL: usize = 512;

/// Reusable buffers for digesting and encoding frames: once warm, a
/// steady recording loop performs **no heap allocation** (the ring
/// writer's counting-allocator test enforces it).
#[derive(Debug)]
pub struct TraceScratch {
    /// Encode buffer for the frame being recorded.
    frame_buf: Vec<u8>,
    /// Live-node membership of the frame being digested.
    alive: NodeBitset,
    /// Deadlock membership of the frame being digested.
    deadlocked: NodeBitset,
}

impl Default for TraceScratch {
    fn default() -> Self {
        TraceScratch::new()
    }
}

impl TraceScratch {
    /// Fresh scratch; bitsets grow to the fabric's size on first use.
    #[must_use]
    pub fn new() -> Self {
        TraceScratch {
            frame_buf: Vec::with_capacity(RECORD_BUF_INITIAL),
            alive: NodeBitset::default(),
            deadlocked: NodeBitset::default(),
        }
    }

    /// Digests one frame's semantic state and recompute-cost delta.
    ///
    /// The state half covers the report's node count and level scale,
    /// every live node's battery bucket (in node order), the live and
    /// deadlock [`NodeBitset`]s (packed words), and the routing
    /// version. Wall time, energy tallies, and job counters are *not*
    /// digested — they ride in the record payload, where replays can
    /// still compare the deterministic ones.
    pub fn digest(
        &mut self,
        report: &SystemReport,
        routing_version: u64,
        delta: &RecomputeStats,
    ) -> FrameDigest {
        let node_count = report.node_count();
        // `resize` zeroes the words in place (no allocation once the
        // vectors have seen this fabric size).
        self.alive.resize(node_count);
        self.deadlocked.resize(node_count);
        let mut hasher = Fnv64::new();
        hasher.write_usize(node_count);
        hasher.write_u32(report.levels());
        for i in 0..node_count {
            let node = NodeId::new(i);
            if report.is_alive(node) {
                self.alive.insert(node);
                hasher.write_u32(report.battery_level(node));
                if report.is_deadlocked(node) {
                    self.deadlocked.insert(node);
                }
            }
        }
        self.alive.digest_into(&mut hasher);
        self.deadlocked.digest_into(&mut hasher);
        hasher.write_u64(routing_version);
        let state = hasher.finish();

        let mut cost_hasher = Fnv64::new();
        for counter in [
            delta.full_recomputes,
            delta.repair_recomputes,
            delta.repaired_sources,
            delta.fallback_sources,
            delta.decrease_repairs,
            delta.decrease_nodes_improved,
            delta.table_delta_rebuilds,
            delta.table_entries_rebuilt,
            delta.table_cells_patched,
            delta.nodes_scanned,
        ] {
            cost_hasher.write_u64(counter);
        }
        FrameDigest { state, cost: cost_hasher.finish() }
    }
}

/// Where recorded frames accumulate.
#[derive(Debug)]
enum Store {
    /// Every frame, in order (length-prefixed, ready to write out).
    Full {
        /// Concatenated `u32`-length-prefixed records.
        bytes: Vec<u8>,
    },
    /// The last `slots.len()` frames; older ones overwritten in place.
    Ring {
        /// One encoded record per slot (no length prefix; the slot's
        /// own length is authoritative). Capacity is retained across
        /// overwrites, so a warm ring records allocation-free.
        slots: Vec<Vec<u8>>,
        /// Next slot to overwrite (= oldest record once wrapped).
        head: usize,
        /// Slots currently holding a record.
        stored: usize,
        /// Frames overwritten so far.
        dropped: u64,
    },
}

/// Frame recorder writing the trace format of this crate.
///
/// Implements [`FrameRecorder`], so it attaches directly to a
/// simulation via [`Simulation::set_frame_recorder`] — usually wrapped
/// in a [`SharedRecorder`] so the caller keeps a handle to extract the
/// trace after the run.
///
/// [`Simulation::set_frame_recorder`]: etx_sim::Simulation::set_frame_recorder
#[derive(Debug)]
pub struct TraceRecorder {
    header: TraceHeader,
    scratch: TraceScratch,
    store: Store,
    /// Capture per-frame wall time? Off for golden / comparison traces
    /// (wall time is the one nondeterministic field in the format).
    wall_time: bool,
    last_instant: Option<Instant>,
    frames_recorded: u64,
}

impl TraceRecorder {
    /// A full-trace recorder: every frame is retained.
    #[must_use]
    pub fn full(header: TraceHeader) -> Self {
        TraceRecorder {
            header,
            scratch: TraceScratch::new(),
            store: Store::Full { bytes: Vec::new() },
            wall_time: true,
            last_instant: None,
            frames_recorded: 0,
        }
    }

    /// A bounded ring recorder keeping the **last** `capacity_frames`
    /// frames (the tail is where deaths and stalls cluster).
    ///
    /// # Panics
    /// When `capacity_frames` is 0.
    #[must_use]
    pub fn ring(header: TraceHeader, capacity_frames: usize) -> Self {
        assert!(capacity_frames > 0, "ring recorder needs at least one slot");
        TraceRecorder {
            header,
            scratch: TraceScratch::new(),
            store: Store::Ring {
                slots: (0..capacity_frames)
                    .map(|_| Vec::with_capacity(RECORD_BUF_INITIAL))
                    .collect(),
                head: 0,
                stored: 0,
                dropped: 0,
            },
            wall_time: true,
            last_instant: None,
            frames_recorded: 0,
        }
    }

    /// Enables or disables per-frame wall-time capture (on by default).
    /// With it off the recorded bytes are a pure function of the run —
    /// what golden traces and strategy-equivalence diffs want.
    #[must_use]
    pub fn with_wall_time(mut self, enabled: bool) -> Self {
        self.wall_time = enabled;
        self
    }

    /// Pre-reserves output capacity (full mode only; a full writer
    /// otherwise grows amortized as frames accumulate).
    pub fn reserve_bytes(&mut self, additional: usize) {
        if let Store::Full { bytes } = &mut self.store {
            bytes.reserve(additional);
        }
    }

    /// Frames delivered to this recorder so far (including ones a ring
    /// has since overwritten).
    #[must_use]
    pub fn frames_recorded(&self) -> u64 {
        self.frames_recorded
    }

    /// The header this recorder stamps on its output.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records one frame (the body of the [`FrameRecorder`] impl).
    pub fn record(&mut self, snapshot: &FrameSnapshot<'_>) {
        let wall_ns = if self.wall_time {
            let now = Instant::now();
            let ns = self.last_instant.map_or(0, |prev| {
                u64::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u64::MAX)
            });
            self.last_instant = Some(now);
            ns
        } else {
            0
        };
        // The engine diffs consecutive counter snapshots itself; every
        // per-frame consumer shares that one delta.
        let delta = snapshot.recompute_delta;
        let digest = self.scratch.digest(snapshot.report, snapshot.routing_version, &delta);
        let buf = &mut self.scratch.frame_buf;
        buf.clear();
        encode_record_parts(
            buf,
            snapshot.frame,
            snapshot.cycle,
            snapshot.recomputed,
            snapshot.routing_version,
            digest.state,
            digest.cost,
            wall_ns,
            snapshot.medium_energy.picojoules().to_bits(),
            snapshot.controller_energy.picojoules().to_bits(),
            snapshot.jobs_completed,
            snapshot.jobs_lost,
            &delta,
            snapshot.events,
        );
        self.frames_recorded += 1;
        match &mut self.store {
            Store::Full { bytes } => {
                put_u32(bytes, u32::try_from(buf.len()).expect("record under 4 GiB"));
                bytes.extend_from_slice(buf);
            }
            Store::Ring { slots, head, stored, dropped } => {
                if *stored == slots.len() {
                    *dropped += 1;
                } else {
                    *stored += 1;
                }
                let slot = &mut slots[*head];
                slot.clear();
                slot.extend_from_slice(buf);
                *head = (*head + 1) % slots.len();
            }
        }
    }

    /// Serializes the trace recorded so far: header (with the ring's
    /// dropped-frame count) followed by the retained records in frame
    /// order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut header = self.header.clone();
        match &self.store {
            Store::Full { bytes } => {
                header.ring = false;
                header.dropped_frames = 0;
                encode_header(&mut out, &header);
                out.extend_from_slice(bytes);
            }
            Store::Ring { slots, head, stored, dropped } => {
                header.ring = true;
                header.dropped_frames = *dropped;
                encode_header(&mut out, &header);
                let mut push = |slot: &Vec<u8>| {
                    put_u32(&mut out, u32::try_from(slot.len()).expect("record under 4 GiB"));
                    out.extend_from_slice(slot);
                };
                if *stored < slots.len() {
                    for slot in &slots[..*stored] {
                        push(slot);
                    }
                } else {
                    for slot in &slots[*head..] {
                        push(slot);
                    }
                    for slot in &slots[..*head] {
                        push(slot);
                    }
                }
            }
        }
        out
    }

    /// Parses the recorded bytes back into a [`Trace`].
    pub fn to_trace(&self) -> Result<Trace, TraceError> {
        Trace::parse(&self.to_bytes())
    }

    /// Writes the trace to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&self.to_bytes())?;
        file.flush()
    }
}

impl FrameRecorder for TraceRecorder {
    fn on_frame(&mut self, snapshot: &FrameSnapshot<'_>) {
        self.record(snapshot);
    }
}

/// Clonable handle around a [`TraceRecorder`], so one clone rides
/// inside the engine (as its boxed [`FrameRecorder`]) while the caller
/// keeps another to extract the trace after the run.
#[derive(Debug, Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<TraceRecorder>>,
}

impl SharedRecorder {
    /// Wraps `recorder`.
    #[must_use]
    pub fn new(recorder: TraceRecorder) -> Self {
        SharedRecorder { inner: Arc::new(Mutex::new(recorder)) }
    }

    /// Runs `f` with the locked recorder.
    pub fn with<R>(&self, f: impl FnOnce(&mut TraceRecorder) -> R) -> R {
        let mut guard = self.inner.lock().expect("trace recorder mutex poisoned");
        f(&mut guard)
    }

    /// Serializes the trace recorded so far.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.with(|r| r.to_bytes())
    }

    /// Parses the trace recorded so far.
    pub fn to_trace(&self) -> Result<Trace, TraceError> {
        Trace::parse(&self.to_bytes())
    }
}

impl FrameRecorder for SharedRecorder {
    fn on_frame(&mut self, snapshot: &FrameSnapshot<'_>) {
        self.with(|r| r.record(snapshot));
    }
}
