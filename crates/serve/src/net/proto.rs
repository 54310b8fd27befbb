//! The `etx-served` message codec: encode/decode for every frame the
//! daemon and its clients exchange.
//!
//! Every message is one frame (`uvarint(payload_len) ++ payload`);
//! `payload[0]` is the message type, client→server types in
//! `0x01..=0x7f`, server→client types in `0x80..=0xff`. The full
//! layout table lives in the README's wire-protocol section. Encoders
//! write into a caller-retained buffer and return the complete frame
//! as one slice (prefix included); decoders are total — any byte
//! sequence yields a value or a [`WireError`], never a panic — and
//! verify their own type byte, so they can be fuzzed directly.

use etx_graph::NodeId;
use etx_routing::RouteEntry;
use etx_trace::wire::{put_f64, put_uvarint, Cursor};

use super::wire::{begin_frame, finish_frame, WireError};
use crate::{Query, QueryBatch, QueryOutput, QueryResult};

/// Protocol version spoken by this build; negotiated in the
/// HELLO/HELLO_ACK handshake (the daemon rejects any other version
/// with [`code::BAD_VERSION`]).
pub const PROTOCOL_VERSION: u64 = 1;

/// The handshake magic, first bytes of every connection.
pub const MAGIC: &[u8; 4] = b"ETXQ";

/// Default cap on one frame's payload (1 MiB) — enough for a
/// ~40k-query batch, small enough that a hostile length prefix cannot
/// balloon a connection's buffer.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// Message type bytes (`payload[0]`).
pub mod msg {
    /// Client → server: handshake (`MAGIC ++ uvarint version`).
    pub const HELLO: u8 = 0x01;
    /// Client → server: a batched query request.
    pub const QUERY: u8 = 0x02;
    /// Client → server: a telemetry ingestion (battery levels/deaths).
    pub const INGEST: u8 = 0x03;
    /// Client → server: stop the daemon (used by tests and the bench
    /// driver; empty payload).
    pub const SHUTDOWN: u8 = 0x04;
    /// Server → client: handshake acknowledgement with topology dims.
    pub const HELLO_ACK: u8 = 0x81;
    /// Server → client: the answers to one QUERY frame.
    pub const RESULTS: u8 = 0x82;
    /// Server → client: an INGEST was applied.
    pub const INGEST_ACK: u8 = 0x83;
    /// Server → client: one request was refused (load shed, unknown
    /// fabric, …). Non-fatal — the connection stays open.
    pub const REJECT: u8 = 0x84;
    /// Server → client: protocol violation; the connection closes
    /// after this frame.
    pub const ERROR: u8 = 0x8f;
}

/// Error codes carried by [`msg::REJECT`] and [`msg::ERROR`] frames.
pub mod code {
    /// The HELLO frame did not start with [`super::MAGIC`]. Fatal.
    pub const BAD_MAGIC: u8 = 1;
    /// The client requested an unsupported protocol version. Fatal.
    pub const BAD_VERSION: u8 = 2;
    /// A frame declared a payload past the daemon's limit. Fatal.
    pub const FRAME_TOO_LARGE: u8 = 3;
    /// A payload failed to decode. Fatal.
    pub const MALFORMED: u8 = 4;
    /// An unknown message type byte. Fatal.
    pub const UNKNOWN_TYPE: u8 = 5;
    /// The owning shard's queue was full — the request was shed, not
    /// queued. Non-fatal: back off and resend.
    pub const OVERLOADED: u8 = 6;
    /// An INGEST addressed a fabric this daemon does not serve.
    /// Non-fatal.
    pub const UNKNOWN_FABRIC: u8 = 7;
}

/// Per-fabric dimensions advertised in HELLO_ACK: `None` for fabric
/// slots whose scenario sample failed to build (they answer
/// `UnknownFabric`), `Some((nodes, modules))` otherwise.
pub type FabricDims = Vec<Option<(u32, u32)>>;

/// One decoded server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// [`msg::HELLO_ACK`].
    HelloAck {
        /// Negotiated protocol version.
        version: u64,
        /// The shard this connection's queries execute on.
        shard: u32,
        /// Total shard (worker-thread) count.
        shard_count: u32,
        /// Per-fabric `(nodes, modules)` dimensions.
        fabrics: FabricDims,
    },
    /// [`msg::RESULTS`] — the payload itself is decoded separately
    /// into a [`QueryOutput`] via [`decode_results_into`].
    Results {
        /// Echo of the request id.
        request_id: u64,
    },
    /// [`msg::INGEST_ACK`].
    IngestAck {
        /// Echo of the request id.
        request_id: u64,
        /// The fabric's table epoch after the ingest.
        epoch: u64,
        /// How many of the items actually changed node state.
        applied: u64,
    },
    /// [`msg::REJECT`].
    Reject {
        /// Echo of the request id.
        request_id: u64,
        /// Why — one of the [`code`] constants.
        code: u8,
    },
    /// [`msg::ERROR`] — the server closes after sending this.
    Error {
        /// Why — one of the [`code`] constants.
        code: u8,
    },
}

// ---------------------------------------------------------------- encode

/// Encodes the client HELLO.
pub fn encode_hello(buf: &mut Vec<u8>) -> &[u8] {
    begin_frame(buf);
    buf.push(msg::HELLO);
    buf.extend_from_slice(MAGIC);
    put_uvarint(buf, PROTOCOL_VERSION);
    finish_frame(buf)
}

/// Encodes the server HELLO_ACK.
pub fn encode_hello_ack<'a>(
    buf: &'a mut Vec<u8>,
    shard: u32,
    shard_count: u32,
    fabrics: &[Option<(u32, u32)>],
) -> &'a [u8] {
    begin_frame(buf);
    buf.push(msg::HELLO_ACK);
    put_uvarint(buf, PROTOCOL_VERSION);
    put_uvarint(buf, u64::from(shard));
    put_uvarint(buf, u64::from(shard_count));
    put_uvarint(buf, fabrics.len() as u64);
    for dims in fabrics {
        match dims {
            Some((nodes, modules)) => {
                buf.push(1);
                put_uvarint(buf, u64::from(*nodes));
                put_uvarint(buf, u64::from(*modules));
            }
            None => buf.push(0),
        }
    }
    finish_frame(buf)
}

/// Per-query tag bytes inside a QUERY payload.
const Q_NEXT_HOP: u8 = 0;
const Q_PATH: u8 = 1;
const Q_COST: u8 = 2;

/// Encodes a QUERY frame carrying `queries` under `request_id`.
pub fn encode_query<'a>(buf: &'a mut Vec<u8>, request_id: u64, queries: &[Query]) -> &'a [u8] {
    begin_frame(buf);
    buf.push(msg::QUERY);
    put_uvarint(buf, request_id);
    put_uvarint(buf, queries.len() as u64);
    for q in queries {
        match *q {
            Query::NextHop { fabric, source, module } => {
                buf.push(Q_NEXT_HOP);
                put_uvarint(buf, u64::from(fabric));
                put_uvarint(buf, source.index() as u64);
                put_uvarint(buf, u64::from(module));
            }
            Query::Path { fabric, source, module } => {
                buf.push(Q_PATH);
                put_uvarint(buf, u64::from(fabric));
                put_uvarint(buf, source.index() as u64);
                put_uvarint(buf, u64::from(module));
            }
            Query::Cost { fabric, source, target } => {
                buf.push(Q_COST);
                put_uvarint(buf, u64::from(fabric));
                put_uvarint(buf, source.index() as u64);
                put_uvarint(buf, target.index() as u64);
            }
        }
    }
    finish_frame(buf)
}

/// Encodes an INGEST frame: `(node, level)` updates for one fabric.
/// Level `0` reports the node dead; level `k > 0` reports battery
/// level `k - 1` (reviving the node if it was dead).
pub fn encode_ingest<'a>(
    buf: &'a mut Vec<u8>,
    request_id: u64,
    fabric: u32,
    items: &[(u32, u32)],
) -> &'a [u8] {
    begin_frame(buf);
    buf.push(msg::INGEST);
    put_uvarint(buf, request_id);
    put_uvarint(buf, u64::from(fabric));
    put_uvarint(buf, items.len() as u64);
    for &(node, level) in items {
        put_uvarint(buf, u64::from(node));
        put_uvarint(buf, u64::from(level));
    }
    finish_frame(buf)
}

/// Encodes the SHUTDOWN frame.
pub fn encode_shutdown(buf: &mut Vec<u8>) -> &[u8] {
    begin_frame(buf);
    buf.push(msg::SHUTDOWN);
    finish_frame(buf)
}

/// Per-result tag bytes inside a RESULTS payload.
const R_NEXT_HOP_NONE: u8 = 0;
const R_NEXT_HOP_SOME: u8 = 1;
const R_PATH_NONE: u8 = 2;
const R_PATH_SOME: u8 = 3;
const R_COST_NONE: u8 = 4;
const R_COST_SOME: u8 = 5;
const R_UNKNOWN_FABRIC: u8 = 6;

// Forced inline: left to LLVM it stays out of line once the codec's
// varint loops are inlined into it, and perfbench `wire_mixed` round
// trips measured ~5 % slower on a 2-vCPU Xeon host.
#[inline(always)]
fn put_entry(buf: &mut Vec<u8>, entry: &RouteEntry) {
    put_uvarint(buf, entry.destination.index() as u64);
    put_uvarint(buf, entry.next_hop.index() as u64);
    put_f64(buf, entry.distance);
}

/// Encodes a RESULTS frame answering one QUERY, in submission order.
/// Path node sequences are inlined from the output's arena.
pub fn encode_results<'a>(buf: &'a mut Vec<u8>, request_id: u64, out: &QueryOutput) -> &'a [u8] {
    begin_frame(buf);
    buf.push(msg::RESULTS);
    put_uvarint(buf, request_id);
    put_uvarint(buf, out.results().len() as u64);
    for result in out.results() {
        match result {
            QueryResult::NextHop(None) => buf.push(R_NEXT_HOP_NONE),
            QueryResult::NextHop(Some(entry)) => {
                buf.push(R_NEXT_HOP_SOME);
                put_entry(buf, entry);
            }
            QueryResult::Path { entry: None, .. } => buf.push(R_PATH_NONE),
            QueryResult::Path { entry: Some(entry), .. } => {
                buf.push(R_PATH_SOME);
                put_entry(buf, entry);
                let nodes = out.path_nodes(result);
                put_uvarint(buf, nodes.len() as u64);
                for node in nodes {
                    put_uvarint(buf, node.index() as u64);
                }
            }
            QueryResult::Cost(None) => buf.push(R_COST_NONE),
            QueryResult::Cost(Some(cost)) => {
                buf.push(R_COST_SOME);
                put_f64(buf, *cost);
            }
            QueryResult::UnknownFabric => buf.push(R_UNKNOWN_FABRIC),
        }
    }
    finish_frame(buf)
}

/// Encodes an INGEST_ACK.
pub fn encode_ingest_ack(buf: &mut Vec<u8>, request_id: u64, epoch: u64, applied: u64) -> &[u8] {
    begin_frame(buf);
    buf.push(msg::INGEST_ACK);
    put_uvarint(buf, request_id);
    put_uvarint(buf, epoch);
    put_uvarint(buf, applied);
    finish_frame(buf)
}

/// Encodes a non-fatal REJECT for one request.
pub fn encode_reject(buf: &mut Vec<u8>, request_id: u64, code: u8) -> &[u8] {
    begin_frame(buf);
    buf.push(msg::REJECT);
    put_uvarint(buf, request_id);
    buf.push(code);
    finish_frame(buf)
}

/// Encodes a fatal ERROR frame.
pub fn encode_error(buf: &mut Vec<u8>, code: u8) -> &[u8] {
    begin_frame(buf);
    buf.push(msg::ERROR);
    buf.push(code);
    finish_frame(buf)
}

// ---------------------------------------------------------------- decode

/// Validates a HELLO payload. Returns the client's protocol version;
/// the error is the wire error code to answer with
/// ([`code::BAD_MAGIC`] or [`code::MALFORMED`]).
pub fn decode_hello(payload: &[u8]) -> Result<u64, u8> {
    let mut c = Cursor::new(payload);
    if c.take_u8() != Ok(msg::HELLO) {
        return Err(code::MALFORMED);
    }
    match c.take_bytes(4) {
        Ok(magic) if magic == MAGIC => {}
        _ => return Err(code::BAD_MAGIC),
    }
    let version = c.take_uvarint().map_err(|_| code::MALFORMED)?;
    if !c.is_empty() {
        return Err(code::MALFORMED);
    }
    Ok(version)
}

fn take_u32(c: &mut Cursor<'_>) -> Result<u32, WireError> {
    u32::try_from(c.take_uvarint()?).map_err(|_| WireError::Malformed)
}

/// A fabric/node/module index bound: decoded ids above this are
/// malformed by construction (no deployment approaches 2^24 nodes),
/// which keeps hostile ids from turning into huge `NodeId` values.
pub(crate) const MAX_INDEX: u64 = 1 << 24;

fn take_index(c: &mut Cursor<'_>) -> Result<u32, WireError> {
    let v = c.take_uvarint()?;
    if v >= MAX_INDEX {
        return Err(WireError::Malformed);
    }
    Ok(v as u32)
}

/// Decodes a QUERY payload into `batch` (cleared first). Returns the
/// request id.
///
/// # Errors
///
/// Any truncation, overflow, bad tag or out-of-range index.
pub fn decode_query_into(payload: &[u8], batch: &mut QueryBatch) -> Result<u64, WireError> {
    batch.clear();
    let mut c = Cursor::new(payload);
    if c.take_u8()? != msg::QUERY {
        return Err(WireError::Malformed);
    }
    let request_id = c.take_uvarint()?;
    let count = c.take_uvarint()?;
    // Each query is at least 4 bytes on the wire, so a count the
    // payload cannot possibly hold is rejected before reserving.
    if count.saturating_mul(4) > payload.len() as u64 {
        return Err(WireError::Malformed);
    }
    for _ in 0..count {
        let tag = c.take_u8()?;
        let fabric = take_index(&mut c)?;
        let source = NodeId::new(take_index(&mut c)? as usize);
        let query = match tag {
            Q_NEXT_HOP => Query::NextHop { fabric, source, module: take_index(&mut c)? },
            Q_PATH => Query::Path { fabric, source, module: take_index(&mut c)? },
            Q_COST => {
                Query::Cost { fabric, source, target: NodeId::new(take_index(&mut c)? as usize) }
            }
            _ => return Err(WireError::Malformed),
        };
        batch.push(query);
    }
    if !c.is_empty() {
        return Err(WireError::Malformed);
    }
    Ok(request_id)
}

/// Decodes an INGEST payload into `items` (cleared first). Returns
/// `(request_id, fabric)`.
///
/// # Errors
///
/// Any truncation, overflow or out-of-range index.
pub fn decode_ingest_into(
    payload: &[u8],
    items: &mut Vec<(u32, u32)>,
) -> Result<(u64, u32), WireError> {
    items.clear();
    let mut c = Cursor::new(payload);
    if c.take_u8()? != msg::INGEST {
        return Err(WireError::Malformed);
    }
    let request_id = c.take_uvarint()?;
    let fabric = take_index(&mut c)?;
    let count = c.take_uvarint()?;
    if count.saturating_mul(2) > payload.len() as u64 {
        return Err(WireError::Malformed);
    }
    for _ in 0..count {
        let node = take_index(&mut c)?;
        let level = take_u32(&mut c)?;
        items.push((node, level));
    }
    if !c.is_empty() {
        return Err(WireError::Malformed);
    }
    Ok((request_id, fabric))
}

/// Decodes a RESULTS payload into `out` (reset first). Returns the
/// request id. Path node sequences land in the output's arena, so
/// [`QueryOutput::path_nodes`] works on the decoded results exactly
/// as on locally executed ones.
///
/// # Errors
///
/// Any truncation, overflow, bad tag or impossible count.
pub fn decode_results_into(payload: &[u8], out: &mut QueryOutput) -> Result<u64, WireError> {
    let mut c = Cursor::new(payload);
    if c.take_u8()? != msg::RESULTS {
        return Err(WireError::Malformed);
    }
    let request_id = c.take_uvarint()?;
    let count = c.take_uvarint()?;
    if count > payload.len() as u64 {
        return Err(WireError::Malformed);
    }
    out.reset(count as usize);
    for i in 0..count as usize {
        let tag = c.take_u8()?;
        let result = match tag {
            R_NEXT_HOP_NONE => QueryResult::NextHop(None),
            R_NEXT_HOP_SOME => QueryResult::NextHop(Some(take_entry(&mut c)?)),
            R_PATH_NONE => QueryResult::Path { entry: None, nodes: (0, 0) },
            R_PATH_SOME => {
                let entry = take_entry(&mut c)?;
                let len = c.take_uvarint()?;
                if len > payload.len() as u64 {
                    return Err(WireError::Malformed);
                }
                let arena = out.arena_mut();
                let start = arena.len() as u32;
                for _ in 0..len {
                    let node = take_index(&mut c)?;
                    arena.push(NodeId::new(node as usize));
                }
                let end = arena.len() as u32;
                QueryResult::Path { entry: Some(entry), nodes: (start, end) }
            }
            R_COST_NONE => QueryResult::Cost(None),
            R_COST_SOME => QueryResult::Cost(Some(c.take_f64()?)),
            R_UNKNOWN_FABRIC => QueryResult::UnknownFabric,
            _ => return Err(WireError::Malformed),
        };
        out.set(i, result);
    }
    if !c.is_empty() {
        return Err(WireError::Malformed);
    }
    Ok(request_id)
}

// Forced inline: left to LLVM it stayed out of line in the `served`
// binary, one call per decoded entry on the client's RESULTS path.
#[inline(always)]
fn take_entry(c: &mut Cursor<'_>) -> Result<RouteEntry, WireError> {
    let destination = NodeId::new(take_index(c)? as usize);
    let next_hop = NodeId::new(take_index(c)? as usize);
    let distance = c.take_f64()?;
    Ok(RouteEntry { destination, next_hop, distance })
}

/// Decodes any server→client payload into a [`Reply`]. RESULTS
/// payloads report only the request id here — decode the body with
/// [`decode_results_into`].
///
/// # Errors
///
/// Any truncation, overflow or unknown type byte.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cursor::new(payload);
    match c.take_u8()? {
        msg::HELLO_ACK => {
            let version = c.take_uvarint()?;
            let shard = take_u32(&mut c)?;
            let shard_count = take_u32(&mut c)?;
            let count = c.take_uvarint()?;
            if count > payload.len() as u64 {
                return Err(WireError::Malformed);
            }
            let mut fabrics = Vec::with_capacity(count as usize);
            for _ in 0..count {
                match c.take_u8()? {
                    0 => fabrics.push(None),
                    1 => {
                        let nodes = take_u32(&mut c)?;
                        let modules = take_u32(&mut c)?;
                        fabrics.push(Some((nodes, modules)));
                    }
                    _ => return Err(WireError::Malformed),
                }
            }
            Ok(Reply::HelloAck { version, shard, shard_count, fabrics })
        }
        msg::RESULTS => {
            let request_id = c.take_uvarint()?;
            Ok(Reply::Results { request_id })
        }
        msg::INGEST_ACK => {
            let request_id = c.take_uvarint()?;
            let epoch = c.take_uvarint()?;
            let applied = c.take_uvarint()?;
            Ok(Reply::IngestAck { request_id, epoch, applied })
        }
        msg::REJECT => {
            let request_id = c.take_uvarint()?;
            let code = c.take_u8()?;
            Ok(Reply::Reject { request_id, code })
        }
        msg::ERROR => {
            let code = c.take_u8()?;
            Ok(Reply::Error { code })
        }
        _ => Err(WireError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_frames_round_trip() {
        let queries = [
            Query::NextHop { fabric: 3, source: NodeId::new(7), module: 2 },
            Query::Path { fabric: 0, source: NodeId::new(0), module: 0 },
            Query::Cost { fabric: 1_000, source: NodeId::new(63), target: NodeId::new(1) },
        ];
        let mut buf = Vec::new();
        let frame = encode_query(&mut buf, 42, &queries);
        // Strip the length prefix the same way the daemon does.
        let mut c = Cursor::new(frame);
        let len = c.take_uvarint().unwrap() as usize;
        let payload = c.take_bytes(len).unwrap();
        let mut batch = QueryBatch::new();
        assert_eq!(decode_query_into(payload, &mut batch), Ok(42));
        assert_eq!(batch.queries(), &queries);
    }

    #[test]
    fn results_frames_round_trip_including_paths() {
        let mut out = QueryOutput::new();
        out.reset(5);
        let entry =
            RouteEntry { destination: NodeId::new(9), next_hop: NodeId::new(4), distance: 2.625 };
        out.set(0, QueryResult::NextHop(Some(entry)));
        out.set(1, QueryResult::NextHop(None));
        out.arena_mut().extend([NodeId::new(1), NodeId::new(4), NodeId::new(9)]);
        out.set(2, QueryResult::Path { entry: Some(entry), nodes: (0, 3) });
        out.set(3, QueryResult::Cost(Some(0.125)));
        out.set(4, QueryResult::UnknownFabric);

        let mut buf = Vec::new();
        let frame = encode_results(&mut buf, 7, &out);
        let mut c = Cursor::new(frame);
        let len = c.take_uvarint().unwrap() as usize;
        let payload = c.take_bytes(len).unwrap();

        let mut decoded = QueryOutput::new();
        assert_eq!(decode_results_into(payload, &mut decoded), Ok(7));
        assert_eq!(decoded.results(), out.results());
        assert_eq!(decoded.path_nodes(&decoded.results()[2]), out.path_nodes(&out.results()[2]));
    }

    #[test]
    fn hello_and_control_frames_round_trip() {
        let mut buf = Vec::new();
        let frame = encode_hello(&mut buf).to_vec();
        assert_eq!(decode_hello(&frame[1..]), Ok(PROTOCOL_VERSION));
        let mut bad = frame[1..].to_vec();
        bad[1] = b'x';
        assert_eq!(decode_hello(&bad), Err(code::BAD_MAGIC));

        let fabrics = vec![Some((64, 5)), None, Some((16, 1))];
        let ack = encode_hello_ack(&mut buf, 2, 4, &fabrics).to_vec();
        let reply = decode_reply(&ack[1..]).unwrap();
        assert_eq!(
            reply,
            Reply::HelloAck { version: PROTOCOL_VERSION, shard: 2, shard_count: 4, fabrics }
        );

        let rej = encode_reject(&mut buf, 13, code::OVERLOADED).to_vec();
        assert_eq!(decode_reply(&rej[1..]), Ok(Reply::Reject { request_id: 13, code: 6 }));
        let err = encode_error(&mut buf, code::UNKNOWN_TYPE).to_vec();
        assert_eq!(decode_reply(&err[1..]), Ok(Reply::Error { code: 5 }));
        let ia = encode_ingest_ack(&mut buf, 9, 17, 3).to_vec();
        assert_eq!(
            decode_reply(&ia[1..]),
            Ok(Reply::IngestAck { request_id: 9, epoch: 17, applied: 3 })
        );
    }

    #[test]
    fn ingest_frames_round_trip() {
        let mut buf = Vec::new();
        let items = [(4u32, 0u32), (9, 13), (0, 1)];
        let frame = encode_ingest(&mut buf, 5, 2, &items).to_vec();
        let mut decoded = Vec::new();
        assert_eq!(decode_ingest_into(&frame[1..], &mut decoded), Ok((5, 2)));
        assert_eq!(decoded, items);
    }

    /// Ids on both sides of the one-, two- and three-byte varint
    /// boundaries and of the decoders' index bound.
    const EDGE_IDS: [u64; 8] = [0, 127, 128, 16_383, 16_384, 2_097_152, MAX_INDEX - 1, MAX_INDEX];

    fn node(id: u64) -> NodeId {
        NodeId::new(id as usize)
    }

    /// The payload of an encoded frame (length prefix stripped).
    fn payload(frame: &[u8]) -> Vec<u8> {
        let mut c = Cursor::new(frame);
        let len = c.take_uvarint().expect("length prefix") as usize;
        c.take_bytes(len).expect("whole frame").to_vec()
    }

    /// A RESULTS body exercising every tag, with ids and path nodes
    /// across the varint boundaries and paths long enough that cut
    /// payloads trip the path-length check.
    fn edge_output(ids: &[u64]) -> QueryOutput {
        let mut out = QueryOutput::new();
        out.reset(7 * ids.len());
        let mut slot = 0;
        for (i, &id) in ids.iter().enumerate() {
            let entry = RouteEntry {
                destination: node(id),
                next_hop: node(ids[(i + 1) % ids.len()]),
                distance: 0.5 + id as f64,
            };
            let start = out.arena_mut().len() as u32;
            out.arena_mut().extend((0..=i * 6).map(|k| node(ids[(i + k) % ids.len()])));
            let end = out.arena_mut().len() as u32;
            for result in [
                QueryResult::NextHop(Some(entry)),
                QueryResult::NextHop(None),
                QueryResult::Path { entry: Some(entry), nodes: (start, end) },
                QueryResult::Path { entry: None, nodes: (0, 0) },
                QueryResult::Cost(Some(id as f64)),
                QueryResult::Cost(None),
                QueryResult::UnknownFabric,
            ] {
                out.set(slot, result);
                slot += 1;
            }
        }
        out
    }

    /// The count checks a decoder runs on a payload, in decode order:
    /// `(offset past the count field, least payload length it needs)`.
    /// Past a check, a cut payload ends mid-field.
    fn count_checks(payload: &[u8]) -> Vec<(usize, u64)> {
        let mut c = Cursor::new(payload);
        let kind = c.take_u8().expect("type byte");
        c.take_uvarint().expect("request id");
        if kind == msg::INGEST {
            c.take_uvarint().expect("fabric");
        }
        let count = c.take_uvarint().expect("count");
        let needs = match kind {
            msg::QUERY => count.saturating_mul(4),
            msg::INGEST => count.saturating_mul(2),
            _ => count,
        };
        let mut checks = vec![(c.position(), needs)];
        if kind == msg::RESULTS {
            for _ in 0..count {
                match c.take_u8().expect("tag") {
                    R_NEXT_HOP_SOME => {
                        take_entry(&mut c).expect("entry");
                    }
                    R_PATH_SOME => {
                        take_entry(&mut c).expect("entry");
                        let len = c.take_uvarint().expect("path length");
                        checks.push((c.position(), len));
                        for _ in 0..len {
                            c.take_uvarint().expect("path node");
                        }
                    }
                    R_COST_SOME => {
                        c.take_f64().expect("cost");
                    }
                    _ => {}
                }
            }
        }
        checks
    }

    /// What a decoder returns for `payload` cut to `cut` bytes: the
    /// first count check the cut fails is `Malformed`; otherwise the
    /// input ends mid-field.
    fn expected_cut(checks: &[(usize, u64)], cut: usize) -> WireError {
        for &(after, needs) in checks {
            if cut < after {
                return WireError::Truncated;
            }
            if needs > cut as u64 {
                return WireError::Malformed;
            }
        }
        WireError::Truncated
    }

    #[test]
    fn every_cut_payload_fails_as_the_layout_predicts() {
        let mut buf = Vec::new();
        let ids = &EDGE_IDS[..EDGE_IDS.len() - 1];
        let queries: Vec<Query> = ids
            .iter()
            .flat_map(|&id| {
                let (fabric, source) = (id as u32, node(ids[(id % 7) as usize]));
                [
                    Query::NextHop { fabric, source, module: id as u32 },
                    Query::Path { fabric, source, module: 3 },
                    Query::Cost { fabric, source, target: node(id) },
                ]
            })
            .collect();
        let items: Vec<(u32, u32)> =
            ids.iter().map(|&id| (id as u32, u32::MAX - id as u32)).collect();
        let payloads = [
            payload(encode_query(&mut buf, 16_384, &queries)),
            payload(encode_query(&mut buf, 1, &queries[..1])),
            payload(encode_results(&mut buf, 300, &edge_output(ids))),
            payload(encode_results(&mut buf, 2, &edge_output(&ids[..1]))),
            payload(encode_ingest(&mut buf, 128, 16_383, &items)),
            payload(encode_ingest(&mut buf, 0, 0, &items[..1])),
        ];
        let mut batch = QueryBatch::new();
        let mut out = QueryOutput::new();
        let mut decoded = Vec::new();
        for payload in &payloads {
            let checks = count_checks(payload);
            for cut in 0..payload.len() {
                let cut_payload = &payload[..cut];
                let got = match payload[0] {
                    msg::QUERY => decode_query_into(cut_payload, &mut batch).map(drop),
                    msg::RESULTS => decode_results_into(cut_payload, &mut out).map(drop),
                    _ => decode_ingest_into(cut_payload, &mut decoded).map(drop),
                };
                assert_eq!(
                    got,
                    Err(expected_cut(&checks, cut)),
                    "type {:#x}, cut {cut}",
                    payload[0]
                );
            }
        }
    }

    #[test]
    fn ids_at_varint_boundaries_round_trip_or_fail() {
        let mut buf = Vec::new();
        let mut batch = QueryBatch::new();
        let mut out = QueryOutput::new();
        let mut items = Vec::new();
        for id in EDGE_IDS {
            let want_ok = id < MAX_INDEX;
            let expect = |ok: bool| if want_ok { Ok(ok) } else { Err(WireError::Malformed) };
            let small = node(5);
            for query in [
                Query::NextHop { fabric: id as u32, source: small, module: 1 },
                Query::Path { fabric: 2, source: node(id), module: 0 },
                Query::NextHop { fabric: 0, source: small, module: id as u32 },
                Query::Cost { fabric: 1, source: small, target: node(id) },
            ] {
                let frame = payload(encode_query(&mut buf, id, &[query]));
                let got = decode_query_into(&frame, &mut batch).map(|rid| rid == id);
                assert_eq!(got, expect(true), "{query:?}");
                if want_ok {
                    assert_eq!(batch.queries(), &[query]);
                }
            }
            let results = edge_output(&[id, 16_384, 127]);
            let frame = payload(encode_results(&mut buf, id, &results));
            let got = decode_results_into(&frame, &mut out).map(|rid| rid == id);
            assert_eq!(got, expect(true), "RESULTS with id {id}");
            if want_ok {
                assert_eq!(out.results(), results.results());
                for (a, b) in out.results().iter().zip(results.results()) {
                    assert_eq!(out.path_nodes(a), results.path_nodes(b));
                }
            }
            for (fabric, sent) in [(id as u32, vec![(3, id as u32)]), (4, vec![(id as u32, 1)])] {
                let frame = payload(encode_ingest(&mut buf, id, fabric, &sent));
                let got = decode_ingest_into(&frame, &mut items);
                let fabric_ok = u64::from(fabric) < MAX_INDEX;
                let node_ok = sent.iter().all(|&(n, _)| u64::from(n) < MAX_INDEX);
                if fabric_ok && node_ok {
                    assert_eq!(got, Ok((id, fabric)));
                    assert_eq!(items, sent);
                } else {
                    assert_eq!(got, Err(WireError::Malformed), "INGEST {fabric} {sent:?}");
                }
            }
        }
    }

    /// The RESULTS encoder as it stood when the decoders gained their
    /// inlined varint path, kept to pin the wire bytes.
    fn reference_results<'a>(buf: &'a mut Vec<u8>, request_id: u64, out: &QueryOutput) -> &'a [u8] {
        fn entry(buf: &mut Vec<u8>, entry: &RouteEntry) {
            put_uvarint(buf, entry.destination.index() as u64);
            put_uvarint(buf, entry.next_hop.index() as u64);
            put_f64(buf, entry.distance);
        }
        begin_frame(buf);
        buf.push(msg::RESULTS);
        put_uvarint(buf, request_id);
        put_uvarint(buf, out.results().len() as u64);
        for result in out.results() {
            match result {
                QueryResult::NextHop(None) => buf.push(0),
                QueryResult::NextHop(Some(e)) => {
                    buf.push(1);
                    entry(buf, e);
                }
                QueryResult::Path { entry: None, .. } => buf.push(2),
                QueryResult::Path { entry: Some(e), .. } => {
                    buf.push(3);
                    entry(buf, e);
                    let nodes = out.path_nodes(result);
                    put_uvarint(buf, nodes.len() as u64);
                    for node in nodes {
                        put_uvarint(buf, node.index() as u64);
                    }
                }
                QueryResult::Cost(None) => buf.push(4),
                QueryResult::Cost(Some(cost)) => {
                    buf.push(5);
                    put_f64(buf, *cost);
                }
                QueryResult::UnknownFabric => buf.push(6),
            }
        }
        finish_frame(buf)
    }

    #[test]
    fn results_frames_are_byte_identical_to_the_reference_encoder() {
        let mut rng = proptest::TestRng::new(0x7e5_0175);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for case in 0..64 {
            let ids: Vec<u64> = (0..1 + case % 9)
                .map(|_| EDGE_IDS[rng.below(EDGE_IDS.len() as u64) as usize] + rng.below(3))
                .collect();
            let out = edge_output(&ids);
            let request_id = rng.next_u64() >> rng.below(64);
            assert_eq!(
                encode_results(&mut a, request_id, &out),
                reference_results(&mut b, request_id, &out),
                "ids {ids:?}"
            );
        }
    }

    #[test]
    fn decoders_reject_impossible_counts_and_trailing_bytes() {
        let mut buf = Vec::new();
        let mut batch = QueryBatch::new();
        // A declared count far past what the payload could hold.
        let mut payload = vec![msg::QUERY, 0];
        put_uvarint(&mut payload, 1 << 40);
        assert_eq!(decode_query_into(&payload, &mut batch), Err(WireError::Malformed));
        // Trailing garbage after a valid body.
        let frame = encode_query(&mut buf, 1, &[]).to_vec();
        let mut padded = frame[1..].to_vec();
        padded.push(0xff);
        assert_eq!(decode_query_into(&padded, &mut batch), Err(WireError::Malformed));
        // Absurd index.
        let mut payload = vec![msg::QUERY, 0, 1, Q_NEXT_HOP];
        put_uvarint(&mut payload, 1 << 30);
        put_uvarint(&mut payload, 0);
        put_uvarint(&mut payload, 0);
        assert_eq!(decode_query_into(&payload, &mut batch), Err(WireError::Malformed));
    }
}
