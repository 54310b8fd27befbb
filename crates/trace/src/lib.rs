//! Deterministic frame-trace record/replay and divergence bisection.
//!
//! The TDMA frame loop in `etx-sim` is deterministic: the same
//! [`SimConfig`](etx_sim::SimConfig) always produces the same sequence
//! of deaths, recomputes, and job outcomes, under either recompute
//! strategy. This crate turns that property into an observability tool:
//!
//! - [`TraceRecorder`] hooks into the engine (via
//!   [`FrameRecorder`](etx_sim::FrameRecorder)) and writes a compact
//!   binary trace: one record per frame carrying the frame's event
//!   stream, a 64-bit **state digest** over battery levels and the
//!   live/deadlock bitsets, a separate **cost digest** over the
//!   recompute counters, and wall-time / energy aggregates. Full-file
//!   and bounded ring-buffer storage; a warm ring records without heap
//!   allocation.
//! - [`replay`] re-drives a fresh engine from the recorded config
//!   fingerprint and asserts every retained frame reproduces
//!   byte-identically.
//! - [`diff_traces`] / [`render_divergence`] bisect two traces to the
//!   first diverging frame and print both frames' digest components and
//!   event streams side by side. Cost-counter drift (expected between
//!   recompute strategies) is tallied but never treated as divergence.
//!
//! The `trace` binary exposes `info`, `diff`, and `bisect` over trace
//! files; `fleet --record` / `--replay` wire recording into scenario
//! runs.

mod format;
mod recorder;
mod replay;
mod wire;

pub use format::{FrameRecord, Trace, TraceHeader, FORMAT_VERSION, MAGIC};
pub use recorder::{FrameDigest, SharedRecorder, TraceRecorder, TraceScratch};
pub use replay::{
    diff_traces, record_run, render_divergence, replay, Divergence, DivergenceComponent,
    RecordMode, RecordOptions, ReplayOutcome, TraceDiff,
};

use etx_graph::Fnv64;
use etx_sim::SimConfig;

/// Everything that can go wrong reading, parsing, or replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The input ended mid-field.
    Truncated,
    /// The input does not start with the `ETXTRACE` magic.
    BadMagic,
    /// The input's format version is one this build cannot read.
    BadVersion(u16),
    /// A structurally invalid field (bad varint, unknown event tag,
    /// out-of-order frames, …).
    Malformed(&'static str),
    /// The replay config failed to build or parse.
    Config(String),
    /// The rebuilt config does not match the trace's recorded config.
    FingerprintMismatch {
        /// Fingerprint stamped in the trace header.
        trace: u64,
        /// Fingerprint of the config the replay rebuilt.
        rebuilt: u64,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "i/o error: {msg}"),
            TraceError::Truncated => f.write_str("trace truncated mid-field"),
            TraceError::BadMagic => f.write_str("not a trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Config(msg) => write!(f, "replay config error: {msg}"),
            TraceError::FingerprintMismatch { trace, rebuilt } => write!(
                f,
                "config fingerprint mismatch: trace {trace:016x}, rebuilt config {rebuilt:016x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Fingerprints a built [`SimConfig`] so a trace can assert at replay
/// time that the rebuilt config matches the recorded one.
///
/// Hashes the config's complete `Debug` rendering — every field of
/// every nested struct participates, so any drift (different spec, a
/// changed default, a new knob) changes the fingerprint.
#[must_use]
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    Fnv64::hash_bytes(format!("{config:?}").as_bytes())
}
