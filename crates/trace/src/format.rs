//! The on-disk frame-trace format: versioned header plus
//! length-prefixed per-frame records.
//!
//! Layout (all integers little-endian, `varint` = unsigned LEB128):
//!
//! | field                | encoding     | notes                          |
//! |----------------------|--------------|--------------------------------|
//! | magic                | 8 bytes      | `ETXTRACE`                     |
//! | format version       | `u16`        | currently 3                    |
//! | flags                | `u16`        | bit 0: ring-buffer trace       |
//! | config fingerprint   | `u64`        | FNV-1a of the built `SimConfig`|
//! | instance             | `u64`        | fleet instance index           |
//! | dropped frames       | `u64`        | ring: frames overwritten       |
//! | spec length          | `u32`        | 0 for standalone recordings    |
//! | spec text            | bytes        | canonical `ScenarioSpec` text  |
//! | records              | repeated     | `u32` length + record payload  |
//!
//! Record payload: `frame`, `cycle`, flags byte (bit 0: recomputed),
//! `routing_version` (varints); `state_digest`, `cost_digest` (`u64`);
//! `wall_ns` (varint); medium/controller energy (`u64` f64-bits);
//! `jobs_completed`, `jobs_lost`, the 10 per-frame [`RecomputeStats`]
//! delta counters, and the frame's event stream (varints; events are a
//! tag byte plus `frame`/`cycle` stamps and tag-specific fields).

use std::path::Path;

use etx_routing::RecomputeStats;
use etx_sim::{TraceEntry, TraceEvent};

use crate::wire::{put_u16, put_u32, put_u64, put_uvarint, Cursor};
use crate::TraceError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ETXTRACE";

/// Current format version. Version 2 dropped the counter of the retired
/// affected-sources recompute strategy from the record payload, and
/// version 3 the counter of the retired changed-bitset frame feed; this
/// build refuses files of any other version.
pub const FORMAT_VERSION: u16 = 3;

/// Header flag bit: the trace came from a bounded ring-buffer writer
/// (only the last `N` frames survive).
const FLAG_RING: u16 = 1 << 0;

/// Identity of a recorded run: what produced the frames that follow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceHeader {
    /// `true` when the trace is the bounded tail of a run (ring writer).
    pub ring: bool,
    /// FNV-1a fingerprint of the run's built `SimConfig` (its `Debug`
    /// rendering — see [`config_fingerprint`](crate::config_fingerprint)).
    /// A replayer refuses traces whose fingerprint does not match the
    /// config it rebuilt.
    pub config_fingerprint: u64,
    /// Fleet instance index this run was sampled as (0 standalone).
    pub instance: u64,
    /// Frames the ring writer overwrote before the first retained
    /// record (0 for full traces).
    pub dropped_frames: u64,
    /// Canonical scenario-spec text the run was sampled from (empty for
    /// standalone recordings driven by an explicit config).
    pub spec: String,
}

/// One recorded TDMA frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// 1-based frame number.
    pub frame: u64,
    /// Cycle the frame boundary fired at.
    pub cycle: u64,
    /// Whether the frame recomputed the routing tables.
    pub recomputed: bool,
    /// Routing-table version after the frame.
    pub routing_version: u64,
    /// Digest of the frame's *semantic* state: battery buckets,
    /// live/deadlock bitsets, routing version (see
    /// [`digest_frame`](crate::digest_frame)).
    pub state_digest: u64,
    /// Digest of the frame's recompute *cost* counters. Split from
    /// `state_digest` because recompute strategies are byte-identical in
    /// semantics but legitimately differ in cost.
    pub cost_digest: u64,
    /// Wall-clock time this frame took, in nanoseconds (0 when the
    /// recorder ran with wall-time capture off). Never part of any
    /// digest or comparison.
    pub wall_ns: u64,
    /// Cumulative medium (upload+download) energy, as `f64` bits of
    /// picojoules.
    pub medium_pj_bits: u64,
    /// Cumulative controller energy, as `f64` bits of picojoules.
    pub controller_pj_bits: u64,
    /// Jobs completed so far.
    pub jobs_completed: u64,
    /// Jobs lost so far.
    pub jobs_lost: u64,
    /// Recompute counters this frame added (delta vs the previous
    /// recorded frame).
    pub recompute_delta: RecomputeStats,
    /// Events since the previous recorded frame, each with its own
    /// frame/cycle stamp.
    pub events: Vec<TraceEntry>,
}

impl FrameRecord {
    /// Cumulative medium energy in picojoules.
    #[must_use]
    pub fn medium_pj(&self) -> f64 {
        f64::from_bits(self.medium_pj_bits)
    }

    /// Cumulative controller energy in picojoules.
    #[must_use]
    pub fn controller_pj(&self) -> f64 {
        f64::from_bits(self.controller_pj_bits)
    }
}

/// Encodes `header` at the front of `out`.
pub(crate) fn encode_header(out: &mut Vec<u8>, header: &TraceHeader) {
    out.extend_from_slice(&MAGIC);
    put_u16(out, FORMAT_VERSION);
    put_u16(out, if header.ring { FLAG_RING } else { 0 });
    put_u64(out, header.config_fingerprint);
    put_u64(out, header.instance);
    put_u64(out, header.dropped_frames);
    let spec = header.spec.as_bytes();
    put_u32(out, u32::try_from(spec.len()).expect("spec text under 4 GiB"));
    out.extend_from_slice(spec);
}

/// Appends one event to a record payload.
fn encode_event(out: &mut Vec<u8>, entry: &TraceEntry) {
    let (tag, a, b): (u8, u64, u64) = match entry.event {
        TraceEvent::NodeDied { node, module } => (0, node.index() as u64, module.index() as u64),
        TraceEvent::NodeRevived { node, module } => (1, node.index() as u64, module.index() as u64),
        TraceEvent::JobCompleted { job } => (2, job, 0),
        TraceEvent::JobLost { job, at } => (3, job, at.index() as u64),
        TraceEvent::RoutingRecomputed { version } => (4, version, 0),
        TraceEvent::DeadlockReported { node } => (5, node.index() as u64, 0),
        TraceEvent::Remapped { node, to } => (6, node.index() as u64, to.index() as u64),
        TraceEvent::ControllerFailover { remaining } => (7, remaining as u64, 0),
    };
    out.push(tag);
    put_uvarint(out, entry.frame);
    put_uvarint(out, entry.cycle);
    put_uvarint(out, a);
    put_uvarint(out, b);
}

fn decode_event(cur: &mut Cursor<'_>) -> Result<TraceEntry, TraceError> {
    use etx_graph::NodeId;
    let tag = cur.take_u8()?;
    let frame = cur.take_uvarint()?;
    let cycle = cur.take_uvarint()?;
    let a = cur.take_uvarint()?;
    let b = cur.take_uvarint()?;
    let node = |v: u64| NodeId::new(v as usize);
    let module = |v: u64| etx_app::ModuleId::new(v as usize);
    let event = match tag {
        0 => TraceEvent::NodeDied { node: node(a), module: module(b) },
        1 => TraceEvent::NodeRevived { node: node(a), module: module(b) },
        2 => TraceEvent::JobCompleted { job: a },
        3 => TraceEvent::JobLost { job: a, at: node(b) },
        4 => TraceEvent::RoutingRecomputed { version: a },
        5 => TraceEvent::DeadlockReported { node: node(a) },
        6 => TraceEvent::Remapped { node: node(a), to: module(b) },
        7 => TraceEvent::ControllerFailover { remaining: a as usize },
        _ => return Err(TraceError::Malformed("unknown event tag")),
    };
    Ok(TraceEntry::new(frame, cycle, event))
}

/// Encodes one record payload (no length prefix) straight from its
/// parts — the recorder's allocation-free path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_record_parts(
    out: &mut Vec<u8>,
    frame: u64,
    cycle: u64,
    recomputed: bool,
    routing_version: u64,
    state_digest: u64,
    cost_digest: u64,
    wall_ns: u64,
    medium_pj_bits: u64,
    controller_pj_bits: u64,
    jobs_completed: u64,
    jobs_lost: u64,
    delta: &RecomputeStats,
    events: &[TraceEntry],
) {
    put_uvarint(out, frame);
    put_uvarint(out, cycle);
    out.push(u8::from(recomputed));
    put_uvarint(out, routing_version);
    put_u64(out, state_digest);
    put_u64(out, cost_digest);
    put_uvarint(out, wall_ns);
    put_u64(out, medium_pj_bits);
    put_u64(out, controller_pj_bits);
    put_uvarint(out, jobs_completed);
    put_uvarint(out, jobs_lost);
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
        put_uvarint(out, counter);
    }
    put_uvarint(out, events.len() as u64);
    for entry in events {
        encode_event(out, entry);
    }
}

/// Encodes one owned record payload (no length prefix) into `out`.
pub(crate) fn encode_record(out: &mut Vec<u8>, record: &FrameRecord) {
    encode_record_parts(
        out,
        record.frame,
        record.cycle,
        record.recomputed,
        record.routing_version,
        record.state_digest,
        record.cost_digest,
        record.wall_ns,
        record.medium_pj_bits,
        record.controller_pj_bits,
        record.jobs_completed,
        record.jobs_lost,
        &record.recompute_delta,
        &record.events,
    );
}

/// Decodes one record payload (the bytes inside one length prefix).
pub(crate) fn decode_record(payload: &[u8]) -> Result<FrameRecord, TraceError> {
    let mut cur = Cursor::new(payload);
    let frame = cur.take_uvarint()?;
    let cycle = cur.take_uvarint()?;
    let flags = cur.take_u8()?;
    let routing_version = cur.take_uvarint()?;
    let state_digest = cur.take_u64()?;
    let cost_digest = cur.take_u64()?;
    let wall_ns = cur.take_uvarint()?;
    let medium_pj_bits = cur.take_u64()?;
    let controller_pj_bits = cur.take_u64()?;
    let jobs_completed = cur.take_uvarint()?;
    let jobs_lost = cur.take_uvarint()?;
    let mut counters = [0u64; 10];
    for slot in &mut counters {
        *slot = cur.take_uvarint()?;
    }
    let recompute_delta = RecomputeStats {
        full_recomputes: counters[0],
        repair_recomputes: counters[1],
        repaired_sources: counters[2],
        fallback_sources: counters[3],
        decrease_repairs: counters[4],
        decrease_nodes_improved: counters[5],
        table_delta_rebuilds: counters[6],
        table_entries_rebuilt: counters[7],
        table_cells_patched: counters[8],
        nodes_scanned: counters[9],
    };
    let event_count = cur.take_uvarint()?;
    if event_count > payload.len() as u64 {
        // Each event takes at least 5 bytes; a count past the payload
        // size is corruption, not a big frame.
        return Err(TraceError::Malformed("event count exceeds record size"));
    }
    let mut events = Vec::with_capacity(event_count as usize);
    for _ in 0..event_count {
        events.push(decode_event(&mut cur)?);
    }
    if !cur.is_empty() {
        return Err(TraceError::Malformed("trailing bytes in record"));
    }
    Ok(FrameRecord {
        frame,
        cycle,
        recomputed: flags & 1 != 0,
        routing_version,
        state_digest,
        cost_digest,
        wall_ns,
        medium_pj_bits,
        controller_pj_bits,
        jobs_completed,
        jobs_lost,
        recompute_delta,
        events,
    })
}

/// A parsed frame trace: header plus the retained records, in frame
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run identity.
    pub header: TraceHeader,
    /// Retained frame records, ascending by frame number (a full trace
    /// starts at frame 1; a ring trace at whatever survived).
    pub records: Vec<FrameRecord>,
}

impl Trace {
    /// Parses a complete trace from `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take_bytes(8)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = cur.take_u16()?;
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let flags = cur.take_u16()?;
        let config_fingerprint = cur.take_u64()?;
        let instance = cur.take_u64()?;
        let dropped_frames = cur.take_u64()?;
        let spec_len = cur.take_u32()? as usize;
        let spec_bytes = cur.take_bytes(spec_len)?;
        let spec = core::str::from_utf8(spec_bytes)
            .map_err(|_| TraceError::Malformed("spec text is not UTF-8"))?
            .to_string();
        let header = TraceHeader {
            ring: flags & FLAG_RING != 0,
            config_fingerprint,
            instance,
            dropped_frames,
            spec,
        };
        let mut records = Vec::new();
        while !cur.is_empty() {
            let len = cur.take_u32()? as usize;
            let payload = cur.take_bytes(len)?;
            let record = decode_record(payload)?;
            if let Some(last) = records.last() {
                let last: &FrameRecord = last;
                if record.frame <= last.frame {
                    return Err(TraceError::Malformed("record frames not ascending"));
                }
            }
            records.push(record);
        }
        Ok(Trace { header, records })
    }

    /// Reads and parses a trace file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Trace::parse(&bytes)
    }

    /// Re-encodes the trace. The encoding is canonical:
    /// `Trace::parse(t.to_bytes()) == t` and re-encoding a parsed file
    /// reproduces it byte for byte.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(&mut out, &self.header);
        let mut payload = Vec::new();
        for record in &self.records {
            payload.clear();
            encode_record(&mut payload, record);
            put_u32(&mut out, u32::try_from(payload.len()).expect("record under 4 GiB"));
            out.extend_from_slice(&payload);
        }
        out
    }

    /// First retained frame number, if any frames were recorded.
    #[must_use]
    pub fn first_frame(&self) -> Option<u64> {
        self.records.first().map(|r| r.frame)
    }

    /// Last retained frame number, if any frames were recorded.
    #[must_use]
    pub fn last_frame(&self) -> Option<u64> {
        self.records.last().map(|r| r.frame)
    }

    /// Total events across all retained records.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.records.iter().map(|r| r.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::NodeId;

    fn sample_record(frame: u64) -> FrameRecord {
        FrameRecord {
            frame,
            cycle: frame * 512,
            recomputed: frame.is_multiple_of(2),
            routing_version: frame / 2 + 1,
            state_digest: 0xdead_beef ^ frame,
            cost_digest: 0x1234 ^ frame,
            wall_ns: 42_000 + frame,
            medium_pj_bits: (1234.5f64 * frame as f64).to_bits(),
            controller_pj_bits: (99.25f64 * frame as f64).to_bits(),
            jobs_completed: frame * 3,
            jobs_lost: frame / 4,
            recompute_delta: RecomputeStats {
                repair_recomputes: 1,
                repaired_sources: frame,
                nodes_scanned: 2 * frame,
                ..RecomputeStats::default()
            },
            events: vec![
                TraceEntry::new(frame, frame * 512, TraceEvent::JobCompleted { job: frame }),
                TraceEntry::new(
                    frame,
                    frame * 512 + 1,
                    TraceEvent::NodeDied {
                        node: NodeId::new(3),
                        module: etx_app::ModuleId::new(1),
                    },
                ),
                TraceEntry::new(
                    frame,
                    frame * 512 + 2,
                    TraceEvent::ControllerFailover { remaining: 1 },
                ),
            ],
        }
    }

    #[test]
    fn trace_roundtrips_canonically() {
        let trace = Trace {
            header: TraceHeader {
                ring: true,
                config_fingerprint: 0xfeed_f00d,
                instance: 7,
                dropped_frames: 11,
                spec: "name = golden\nseed = 1\n".to_string(),
            },
            records: (1..=5).map(sample_record).collect(),
        };
        let bytes = trace.to_bytes();
        let parsed = Trace::parse(&bytes).unwrap();
        assert_eq!(parsed, trace);
        // Canonical: re-encoding reproduces the bytes exactly.
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.first_frame(), Some(1));
        assert_eq!(parsed.last_frame(), Some(5));
        assert_eq!(parsed.event_count(), 15);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let trace = Trace { header: TraceHeader::default(), records: vec![sample_record(1)] };
        let bytes = trace.to_bytes();
        assert!(matches!(Trace::parse(&bytes[..4]), Err(TraceError::Truncated)));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(Trace::parse(&bad_magic), Err(TraceError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[8] = 0xff;
        assert!(matches!(Trace::parse(&bad_version), Err(TraceError::BadVersion(_))));
        // Older files carry more counters per record: refused.
        for old in [1u16, 2] {
            let mut stale = bytes.clone();
            stale[8..10].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(Trace::parse(&stale), Err(TraceError::BadVersion(v)) if v == old));
        }
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        assert!(Trace::parse(&truncated).is_err());
    }

    #[test]
    fn out_of_order_frames_are_rejected() {
        let trace = Trace {
            header: TraceHeader::default(),
            records: vec![sample_record(2), sample_record(2)],
        };
        // to_bytes happily encodes; parse enforces the invariant.
        assert!(matches!(
            Trace::parse(&trace.to_bytes()),
            Err(TraceError::Malformed("record frames not ascending"))
        ));
    }
}
