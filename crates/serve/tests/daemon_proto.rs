//! Wire-protocol robustness: hostile, truncated and garbage frames
//! must come back as a clean ERROR frame (or a clean close) — never a
//! panic, never a wedged server, never a leaked queue slot — plus
//! property-tested encode/decode round-trips over random batches.
//!
//! The malformed-frame tests speak raw `TcpStream` so nothing in
//! [`RouteClient`] can paper over a framing bug.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use etx_fleet::ScenarioSpec;
use etx_graph::NodeId;
use etx_metrics::{CounterId, MetricsHandle, Registry};
use etx_serve::net::proto::{self, code, msg, Reply, DEFAULT_MAX_FRAME_LEN};
use etx_serve::net::{FrameReader, RouteClient, Served, ServedConfig};
use etx_serve::{FleetFrontend, Query, QueryBatch, QueryOutput, WorkloadGen, WorkloadSpec};
use etx_trace::wire::{put_uvarint, Cursor};
use proptest::prelude::*;

fn start_daemon() -> Served {
    let spec = ScenarioSpec { instances: 1, ..ScenarioSpec::smoke() };
    let mut config = ServedConfig::new(spec);
    config.warm_cycles = Some(300);
    Served::start(config).expect("daemon starts")
}

/// Frames an arbitrary payload (including ones the real encoders would
/// refuse to produce).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Splits a full frame produced by the real encoders into its payload,
/// verifying the length prefix is exact.
fn parse_frame(full: &[u8]) -> &[u8] {
    let mut cur = Cursor::new(full);
    let len = cur.take_uvarint().expect("length prefix");
    let payload = &full[cur.position()..];
    assert_eq!(payload.len() as u64, len, "prefix disagrees with payload length");
    payload
}

fn read_reply(reader: &mut FrameReader, stream: &TcpStream) -> Reply {
    let payload = reader
        .next_frame(stream, DEFAULT_MAX_FRAME_LEN)
        .expect("frame arrives")
        .expect("stream still open");
    proto::decode_reply(payload).expect("reply decodes")
}

/// Handshakes a raw socket and returns it with a reader, past the
/// HELLO_ACK, ready for hostile frames.
fn raw_handshake(served: &Served) -> (TcpStream, FrameReader) {
    let stream = TcpStream::connect(served.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf = Vec::new();
    (&stream).write_all(proto::encode_hello(&mut buf)).expect("hello");
    let mut reader = FrameReader::new();
    match read_reply(&mut reader, &stream) {
        Reply::HelloAck { .. } => {}
        other => panic!("expected HELLO_ACK, got {other:?}"),
    }
    (stream, reader)
}

/// The server must still answer a well-formed client after a hostile
/// or half-finished connection went away.
fn assert_server_healthy(served: &Served) {
    let mut client = RouteClient::connect(served.addr()).expect("server still accepting");
    let queries = [Query::NextHop { fabric: 0, source: NodeId::new(1), module: 0 }];
    let mut out = QueryOutput::new();
    client.query(&queries, &mut out).expect("server still answering");
    assert_eq!(out.results().len(), 1);
}

#[test]
fn bad_magic_draws_error_frame() {
    let served = start_daemon();
    let stream = TcpStream::connect(served.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut payload = vec![msg::HELLO];
    payload.extend_from_slice(b"NOPE");
    put_uvarint(&mut payload, proto::PROTOCOL_VERSION);
    (&stream).write_all(&frame(&payload)).unwrap();
    let mut reader = FrameReader::new();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::BAD_MAGIC),
        other => panic!("expected ERROR, got {other:?}"),
    }
    // The server hangs up after a fatal error.
    assert!(matches!(reader.next_frame(&stream, DEFAULT_MAX_FRAME_LEN), Ok(None)));
    assert_server_healthy(&served);
}

#[test]
fn wrong_version_draws_error_frame() {
    let served = start_daemon();
    let stream = TcpStream::connect(served.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut payload = vec![msg::HELLO];
    payload.extend_from_slice(proto::MAGIC);
    put_uvarint(&mut payload, proto::PROTOCOL_VERSION + 9);
    (&stream).write_all(&frame(&payload)).unwrap();
    let mut reader = FrameReader::new();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::BAD_VERSION),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_server_healthy(&served);
}

#[test]
fn oversized_declared_length_draws_error_frame() {
    let served = start_daemon();
    let (stream, mut reader) = raw_handshake(&served);
    // Declare a payload just past the server's frame cap; the server
    // must refuse from the prefix alone without buffering it.
    let mut header = Vec::new();
    put_uvarint(&mut header, DEFAULT_MAX_FRAME_LEN as u64 + 1);
    (&stream).write_all(&header).unwrap();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::FRAME_TOO_LARGE),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_server_healthy(&served);
}

#[test]
fn unknown_message_type_draws_error_frame() {
    let served = start_daemon();
    let (stream, mut reader) = raw_handshake(&served);
    (&stream).write_all(&frame(&[0x7f, 1, 2, 3])).unwrap();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::UNKNOWN_TYPE),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_server_healthy(&served);
}

#[test]
fn empty_payload_draws_error_frame() {
    let served = start_daemon();
    let (stream, mut reader) = raw_handshake(&served);
    (&stream).write_all(&frame(&[])).unwrap();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::MALFORMED),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_server_healthy(&served);
}

#[test]
fn garbage_query_payload_draws_error_frame() {
    let served = start_daemon();
    let (stream, mut reader) = raw_handshake(&served);
    // A QUERY frame whose query count (2^40) cannot fit the payload:
    // the decoder must refuse before looping, not attempt to reserve.
    let mut payload = vec![msg::QUERY];
    put_uvarint(&mut payload, 1); // request id
    put_uvarint(&mut payload, 1 << 40); // absurd query count
    (&stream).write_all(&frame(&payload)).unwrap();
    match read_reply(&mut reader, &stream) {
        Reply::Error { code } => assert_eq!(code, code::MALFORMED),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_server_healthy(&served);
}

#[test]
fn truncated_frame_and_disconnect_leave_server_healthy() {
    let served = start_daemon();
    {
        let (stream, _reader) = raw_handshake(&served);
        // Declare 100 payload bytes, deliver 10, vanish mid-frame.
        let mut partial = Vec::new();
        put_uvarint(&mut partial, 100);
        partial.extend_from_slice(&[msg::QUERY; 10]);
        (&stream).write_all(&partial).unwrap();
    } // dropped: connection reset mid-frame
    assert_server_healthy(&served);
}

#[test]
fn disconnect_after_queued_batch_leaves_server_healthy() {
    let served = start_daemon();
    {
        let mut client = RouteClient::connect(served.addr()).unwrap();
        // A real in-flight batch whose reply has nowhere to go.
        let queries = [Query::Path { fabric: 0, source: NodeId::new(2), module: 0 }];
        client.send_queries(&queries).unwrap();
    } // dropped before recv: the worker's write_frame fails harmlessly
    assert_server_healthy(&served);
}

/// `net.bytes_in` and `net.bytes_out` count whole frames, length
/// prefix included: after a raw HELLO and one two-query QUERY, they
/// equal exactly the bytes the client wrote and read.
#[test]
fn net_byte_counters_count_whole_frames() {
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    let mut config = ServedConfig::new(ScenarioSpec { instances: 1, ..ScenarioSpec::smoke() });
    config.warm_cycles = Some(300);
    config.metrics = metrics.clone();
    let mut served = Served::start(config).expect("daemon starts");

    let stream = TcpStream::connect(served.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = FrameReader::new();
    let mut buf = Vec::new();
    let queries = [
        Query::NextHop { fabric: 0, source: NodeId::new(1), module: 0 },
        Query::Cost { fabric: 0, source: NodeId::new(0), target: NodeId::new(2) },
    ];
    let (mut written, mut read) = (0u64, 0u64);
    let mut exchange = |sent: &[u8]| {
        written += sent.len() as u64;
        (&stream).write_all(sent).unwrap();
        let payload = reader
            .next_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .expect("frame arrives")
            .expect("stream still open");
        // Re-frame the payload locally: prefix bytes count too.
        read += frame(payload).len() as u64;
        proto::decode_reply(payload).expect("reply decodes")
    };
    let ack = exchange(proto::encode_hello(&mut buf));
    assert!(matches!(ack, Reply::HelloAck { .. }), "{ack:?}");
    let results = exchange(proto::encode_query(&mut buf, 1, &queries));
    assert!(matches!(results, Reply::Results { request_id: 1 }), "{results:?}");

    // Joining the workers orders every counter update before the reads.
    served.shutdown();
    served.wait();
    assert_eq!(metrics.counter(CounterId::NetFramesIn), 2);
    assert_eq!(metrics.counter(CounterId::NetFramesOut), 2);
    assert_eq!(metrics.counter(CounterId::NetBytesIn), written);
    assert_eq!(metrics.counter(CounterId::NetBytesOut), read);
}

fn arbitrary_query() -> impl Strategy<Value = Query> {
    (0u8..3, 0u32..64, 0u32..4096, 0u32..4096).prop_map(|(kind, fabric, a, b)| match kind {
        0 => Query::NextHop { fabric, source: NodeId::new(a as usize), module: b },
        1 => Query::Path { fabric, source: NodeId::new(a as usize), module: b },
        _ => {
            Query::Cost { fabric, source: NodeId::new(a as usize), target: NodeId::new(b as usize) }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random query batches survive encode → frame-parse → decode
    /// bit-exactly, request id included.
    #[test]
    fn query_frames_round_trip(
        request_id in any::<u64>(),
        queries in proptest::collection::vec(arbitrary_query(), 0..48),
    ) {
        let mut buf = Vec::new();
        let full = proto::encode_query(&mut buf, request_id, &queries);
        let payload = parse_frame(full);
        let mut batch = QueryBatch::new();
        let decoded_id = proto::decode_query_into(payload, &mut batch).expect("decodes");
        prop_assert_eq!(decoded_id, request_id);
        prop_assert_eq!(batch.queries(), &queries[..]);
    }

    /// Random ingest batches round-trip exactly.
    #[test]
    fn ingest_frames_round_trip(
        request_id in any::<u64>(),
        fabric in 0u32..256,
        items in proptest::collection::vec((0u32..4096, 0u32..64), 0..64),
    ) {
        let mut buf = Vec::new();
        let full = proto::encode_ingest(&mut buf, request_id, fabric, &items);
        let payload = parse_frame(full);
        let mut decoded = Vec::new();
        let (id, fab) = proto::decode_ingest_into(payload, &mut decoded).expect("decodes");
        prop_assert_eq!(id, request_id);
        prop_assert_eq!(fab, fabric);
        prop_assert_eq!(decoded, items);
    }

    /// Arbitrary byte soup never panics any payload decoder — every
    /// outcome is a clean `Ok` or a typed `WireError`.
    #[test]
    fn decoders_are_total_on_garbage(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut batch = QueryBatch::new();
        let _ = proto::decode_query_into(&payload, &mut batch);
        let mut items = Vec::new();
        let _ = proto::decode_ingest_into(&payload, &mut items);
        let mut out = QueryOutput::new();
        let _ = proto::decode_results_into(&payload, &mut out);
        let _ = proto::decode_reply(&payload);
        let _ = proto::decode_hello(&payload);
    }
}

/// Real result sets — `None`s, next hops, full paths with arena-backed
/// node lists, costs — round-trip through RESULTS frames exactly.
#[test]
fn results_frames_round_trip_against_frontend() {
    let spec = ScenarioSpec { instances: 2, ..ScenarioSpec::smoke() };
    let frontend = FleetFrontend::from_spec(&spec, 300).expect("frontend");
    let mut out = QueryOutput::new();
    let mut decoded = QueryOutput::new();
    let mut buf = Vec::new();
    for seed in [3u64, 19, 77] {
        let mut generator =
            WorkloadGen::new(WorkloadSpec { seed, batch: 128, ..WorkloadSpec::default() });
        let mut batch = QueryBatch::new();
        generator.fill(&frontend, &mut batch);
        frontend.execute(&mut batch, &mut out);
        let full = proto::encode_results(&mut buf, seed, &out);
        let payload = parse_frame(full);
        let id = proto::decode_results_into(payload, &mut decoded).expect("decodes");
        assert_eq!(id, seed);
        // Arena span offsets are layout, not payload: compare entries
        // and materialized path node lists.
        assert_eq!(decoded.results().len(), out.results().len());
        for (a, b) in out.results().iter().zip(decoded.results()) {
            match (a, b) {
                (
                    etx_serve::QueryResult::Path { entry: ea, .. },
                    etx_serve::QueryResult::Path { entry: eb, .. },
                ) => assert_eq!(ea, eb),
                _ => assert_eq!(a, b),
            }
            assert_eq!(out.path_nodes(a), decoded.path_nodes(b));
        }
    }
}
