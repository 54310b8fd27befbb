//! [`RouteClient`]: the blocking client half of the daemon protocol.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use super::proto::{self, FabricDims, Reply, PROTOCOL_VERSION};
use super::wire::{FrameReader, RecvError, WireError};
use crate::workload::FabricDirectory;
use crate::{Query, QueryOutput};

/// A client-side failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::ErrorKind),
    /// A frame could not be received (truncated, oversized, hostile
    /// prefix).
    Recv(RecvError),
    /// A received payload failed to decode.
    Wire(WireError),
    /// The server answered with a fatal ERROR frame and is closing.
    Remote {
        /// The server's error code (see [`proto::code`]).
        code: u8,
    },
    /// The server closed the connection cleanly.
    Closed,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Io(kind) => write!(f, "socket error: {kind:?}"),
            NetError::Recv(e) => write!(f, "receive failed: {e}"),
            NetError::Wire(e) => write!(f, "malformed server frame: {e}"),
            NetError::Remote { code } => write!(f, "server error code {code}"),
            NetError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<RecvError> for NetError {
    fn from(e: RecvError) -> Self {
        NetError::Recv(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.kind())
    }
}

/// What one received server frame was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// RESULTS: the answers were decoded into the caller's
    /// [`QueryOutput`].
    Results,
    /// INGEST_ACK: the ingest was applied.
    IngestAck {
        /// The fabric's table epoch after the ingest.
        epoch: u64,
        /// Items that actually changed node state.
        applied: u64,
    },
    /// REJECT: the request was refused (non-fatal); for
    /// [`proto::code::OVERLOADED`], back off and resend.
    Rejected {
        /// Why (see [`proto::code`]).
        code: u8,
    },
}

/// One received server frame: which request it answers and what it
/// carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub request_id: u64,
    /// The decoded frame kind.
    pub kind: ResponseKind,
}

/// A blocking connection to an `etx-served` daemon. Handshakes on
/// connect, learns the fleet's fabric dimensions from HELLO_ACK (so a
/// [`WorkloadGen`](crate::WorkloadGen) can run against it exactly as against the
/// in-process frontend), and reuses its encode/receive buffers — the
/// warm request path allocates nothing.
#[derive(Debug)]
pub struct RouteClient {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    dims: FabricDims,
    shard: u32,
    shard_count: u32,
    next_request: u64,
    max_frame_len: usize,
}

impl RouteClient {
    /// Connects and handshakes.
    ///
    /// # Errors
    ///
    /// Socket failures, handshake rejections ([`NetError::Remote`])
    /// and malformed server frames.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RouteClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = RouteClient {
            stream,
            reader: FrameReader::new(),
            buf: Vec::new(),
            dims: Vec::new(),
            shard: 0,
            shard_count: 0,
            next_request: 0,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
        };
        let frame = proto::encode_hello(&mut client.buf);
        (&client.stream).write_all(frame)?;
        let (payload, _) = client
            .reader
            .next_frame(&client.stream, client.max_frame_len)?
            .ok_or(NetError::Closed)?;
        match proto::decode_reply(payload)? {
            Reply::HelloAck { version, shard, shard_count, fabrics }
                if version == PROTOCOL_VERSION =>
            {
                client.dims = fabrics;
                client.shard = shard;
                client.shard_count = shard_count;
                Ok(client)
            }
            Reply::Error { code } => Err(NetError::Remote { code }),
            _ => Err(NetError::Wire(WireError::Malformed)),
        }
    }

    /// [`RouteClient::connect`], retried until `timeout` — for racing
    /// a daemon that is still warming its fleet (the CI smoke job
    /// launches `served` and connects concurrently).
    ///
    /// # Errors
    ///
    /// The last attempt's error once `timeout` has elapsed.
    pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> Result<RouteClient, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match RouteClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// The shard this connection's queries execute on.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The daemon's worker (shard) count.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Sends a QUERY frame; returns its request id. Answers arrive
    /// via [`RouteClient::recv`] in request order.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn send_queries(&mut self, queries: &[Query]) -> Result<u64, NetError> {
        let id = self.next_request;
        self.next_request += 1;
        let frame = proto::encode_query(&mut self.buf, id, queries);
        (&self.stream).write_all(frame)?;
        Ok(id)
    }

    /// Sends an INGEST of `(node, wire level)` items for `fabric`;
    /// returns its request id. Wire level `0` reports the node dead,
    /// `k > 0` reports battery level `k − 1`.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn send_ingest(&mut self, fabric: u32, items: &[(u32, u32)]) -> Result<u64, NetError> {
        let id = self.next_request;
        self.next_request += 1;
        let frame = proto::encode_ingest(&mut self.buf, id, fabric, items);
        (&self.stream).write_all(frame)?;
        Ok(id)
    }

    /// Sends a SHUTDOWN frame: the daemon begins shutdown and closes
    /// every connection.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn send_shutdown(&mut self) -> Result<(), NetError> {
        let frame = proto::encode_shutdown(&mut self.buf);
        (&self.stream).write_all(frame)?;
        Ok(())
    }

    /// Receives the next server frame. RESULTS payloads are decoded
    /// into `out` (its previous contents are replaced); other kinds
    /// leave `out` untouched.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on clean close, [`NetError::Remote`] on a
    /// fatal ERROR frame, receive/decode failures otherwise.
    pub fn recv(&mut self, out: &mut QueryOutput) -> Result<Response, NetError> {
        let (payload, _) =
            self.reader.next_frame(&self.stream, self.max_frame_len)?.ok_or(NetError::Closed)?;
        if payload.first() == Some(&proto::msg::RESULTS) {
            let request_id = proto::decode_results_into(payload, out)?;
            return Ok(Response { request_id, kind: ResponseKind::Results });
        }
        match proto::decode_reply(payload)? {
            Reply::IngestAck { request_id, epoch, applied } => {
                Ok(Response { request_id, kind: ResponseKind::IngestAck { epoch, applied } })
            }
            Reply::Reject { request_id, code } => {
                Ok(Response { request_id, kind: ResponseKind::Rejected { code } })
            }
            Reply::Error { code } => Err(NetError::Remote { code }),
            _ => Err(NetError::Wire(WireError::Malformed)),
        }
    }

    /// Sends one batch and blocks for its answer — the convenience
    /// path for examples and differential tests; a load generator
    /// pipelines [`RouteClient::send_queries`] and [`RouteClient::recv`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Send/receive failures; a REJECT or a mismatched request id is
    /// surfaced in the returned [`Response`] / as an error.
    pub fn query(
        &mut self,
        queries: &[Query],
        out: &mut QueryOutput,
    ) -> Result<Response, NetError> {
        let id = self.send_queries(queries)?;
        let response = self.recv(out)?;
        if response.request_id != id {
            return Err(NetError::Wire(WireError::Malformed));
        }
        Ok(response)
    }
}

impl FabricDirectory for RouteClient {
    fn fabric_count(&self) -> usize {
        self.dims.len()
    }

    fn node_count(&self, fabric: u32) -> Option<usize> {
        self.dims.get(fabric as usize)?.map(|(nodes, _)| nodes as usize)
    }

    fn module_count(&self, fabric: u32) -> Option<usize> {
        self.dims.get(fabric as usize)?.map(|(_, modules)| modules as usize)
    }
}
