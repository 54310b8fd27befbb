//! Frame plumbing for the daemon protocol: the in-place length-prefix
//! writer and a buffered frame reader. A frame is
//! `uvarint(payload_len) ++ payload`.
//!
//! Field encoding (unsigned LEB128 for every integer, `f64` as its
//! IEEE-754 bit pattern in 8 little-endian bytes, the bounds-checked
//! [`Cursor`]) is [`etx_trace::wire`], the workspace's one codec, shared
//! with the frame-trace format. Every decoder is total: malformed input
//! yields a [`WireError`], never a panic, because the daemon feeds these
//! routines bytes from arbitrary TCP peers.

use std::io::Read;
use std::net::TcpStream;

use etx_trace::wire::Cursor;
pub use etx_trace::wire::WireError;

/// Bytes reserved at the front of an encode buffer for the length
/// prefix. Five LEB128 bytes cover payloads up to 2^35-1 — far past
/// any permitted `max_frame_len` — so the prefix is written backwards
/// into the reservation and the frame goes out as one contiguous
/// slice, no second buffer, no memmove.
pub(crate) const FRAME_PREFIX: usize = 5;

/// Clears `buf` and reserves [`FRAME_PREFIX`] bytes for the length
/// prefix; the message payload is appended after this.
pub(crate) fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(FRAME_PREFIX, 0);
}

/// Seals a frame begun with [`begin_frame`]: writes the payload
/// length backwards into the reservation and returns the wire bytes
/// (`length prefix ++ payload`) as one slice of `buf`.
pub(crate) fn finish_frame(buf: &mut [u8]) -> &[u8] {
    let payload = buf.len() - FRAME_PREFIX;
    let mut tmp = [0u8; FRAME_PREFIX];
    let mut v = payload as u64;
    let mut w = 0;
    while v >= 0x80 {
        tmp[w] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        w += 1;
    }
    tmp[w] = v as u8;
    w += 1;
    let start = FRAME_PREFIX - w;
    buf[start..FRAME_PREFIX].copy_from_slice(&tmp[..w]);
    &buf[start..]
}

/// A failure while receiving a frame from a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed the connection mid-frame (a close *between*
    /// frames is the clean end-of-stream, reported as `Ok(None)`).
    Truncated,
    /// The length prefix declared a payload past the permitted
    /// maximum. Detected before any body byte is read, so oversized
    /// frames cost the attacker bytes, not the daemon memory.
    TooLarge {
        /// The declared payload length.
        declared: u64,
    },
    /// The length prefix itself was not a valid varint.
    BadLength,
    /// The underlying socket read failed.
    Io(std::io::ErrorKind),
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Truncated => write!(f, "peer closed mid-frame"),
            RecvError::TooLarge { declared } => {
                write!(f, "declared payload of {declared} bytes exceeds the frame limit")
            }
            RecvError::BadLength => write!(f, "malformed length prefix"),
            RecvError::Io(kind) => write!(f, "socket read failed: {kind:?}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Buffered frame extraction from a `TcpStream`: reads in large
/// chunks, hands out one payload slice per call. The buffer is
/// retained (and only compacted in place) across frames, so the warm
/// receive path performs zero allocations once the buffer has grown
/// to the connection's working frame size.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with a 64 KiB initial buffer (doubles as needed, up
    /// to the frame limit the caller enforces).
    #[must_use]
    pub fn new() -> Self {
        FrameReader { buf: vec![0; 64 * 1024], start: 0, end: 0 }
    }

    /// Attempts to parse one frame out of the buffered bytes.
    /// `Ok(Some((s, e)))`: payload spans `buf[s..e]` and the prefix
    /// was consumed. `Ok(None)`: more bytes needed.
    fn try_parse(&self, max_len: usize) -> Result<Option<(usize, usize)>, RecvError> {
        let avail = &self.buf[self.start..self.end];
        let mut cur = Cursor::new(avail);
        let len = match cur.take_uvarint() {
            Ok(len) => len,
            // The prefix itself is still arriving.
            Err(WireError::Truncated) => return Ok(None),
            Err(_) => return Err(RecvError::BadLength),
        };
        if len > max_len as u64 {
            return Err(RecvError::TooLarge { declared: len });
        }
        let prefix = cur.position();
        let need = prefix + len as usize;
        if avail.len() < need {
            return Ok(None);
        }
        Ok(Some((self.start + prefix, self.start + need)))
    }

    /// Reads from `stream` until one whole frame is buffered and
    /// returns its payload plus the bytes the frame took on the wire
    /// (length prefix included, however many bytes the peer spent on
    /// it). `Ok(None)` is the clean end of stream: the peer closed
    /// exactly on a frame boundary.
    ///
    /// # Errors
    ///
    /// [`RecvError::Truncated`] when the peer closes mid-frame,
    /// [`RecvError::TooLarge`]/[`RecvError::BadLength`] for a hostile
    /// prefix, [`RecvError::Io`] when the socket read fails.
    pub fn next_frame(
        &mut self,
        stream: &TcpStream,
        max_len: usize,
    ) -> Result<Option<(&[u8], usize)>, RecvError> {
        let (s, e) = loop {
            match self.try_parse(max_len)? {
                Some(span) => break span,
                None => {
                    if !self.fill(stream)? {
                        if self.start == self.end {
                            return Ok(None);
                        }
                        return Err(RecvError::Truncated);
                    }
                }
            }
        };
        let wire_len = e - self.start;
        self.start = e;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some((&self.buf[s..e], wire_len)))
    }

    /// One socket read into the free tail of the buffer, compacting
    /// or doubling first when the tail is full. `Ok(false)` is EOF.
    fn fill(&mut self, mut stream: &TcpStream) -> Result<bool, RecvError> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let doubled = self.buf.len() * 2;
                self.buf.resize(doubled, 0);
            }
        }
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e.kind())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use etx_trace::wire::put_uvarint;

    use super::*;

    /// A reader holding exactly `bytes`, as if one socket read had
    /// delivered them.
    fn buffered(bytes: &[u8]) -> FrameReader {
        let mut reader = FrameReader::new();
        reader.buf[..bytes.len()].copy_from_slice(bytes);
        reader.end = bytes.len();
        reader
    }

    #[test]
    fn varints_round_trip() {
        // The in-place prefix writer agrees with the codec, and the
        // reader parses it back, across 1-, 2- and 3-byte prefixes.
        let mut buf = Vec::new();
        for len in [0usize, 1, 0x7f, 0x80, 0x3fff, 0x4000, 40_000] {
            begin_frame(&mut buf);
            buf.resize(FRAME_PREFIX + len, 0xab);
            let frame = finish_frame(&mut buf).to_vec();
            let mut prefix = Vec::new();
            put_uvarint(&mut prefix, len as u64);
            assert_eq!(&frame[..prefix.len()], prefix.as_slice(), "length {len}");
            let reader = buffered(&frame);
            assert_eq!(reader.try_parse(1 << 20), Ok(Some((prefix.len(), frame.len()))));
        }
    }

    #[test]
    fn cursor_rejects_truncation_and_overflow() {
        // A prefix cut short waits for more bytes; so does a whole
        // prefix whose payload has not arrived yet.
        assert_eq!(buffered(&[]).try_parse(64), Ok(None));
        assert_eq!(buffered(&[0x80]).try_parse(64), Ok(None));
        assert_eq!(buffered(&[3, 1, 2]).try_parse(64), Ok(None));
        // A prefix past 64 bits is a bad length, not a short read.
        assert_eq!(buffered(&[0x80; 10]).try_parse(64), Err(RecvError::BadLength));
        // A declared length past the limit is refused before the body.
        assert_eq!(buffered(&[65]).try_parse(64), Err(RecvError::TooLarge { declared: 65 }));
    }

    #[test]
    fn frame_prefix_is_written_in_place() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.extend_from_slice(b"hello");
        let frame = finish_frame(&mut buf);
        assert_eq!(frame, [5, b'h', b'e', b'l', b'l', b'o']);

        // A payload long enough to need a two-byte prefix.
        begin_frame(&mut buf);
        buf.resize(FRAME_PREFIX + 300, 0xab);
        let frame = finish_frame(&mut buf);
        assert_eq!(frame.len(), 2 + 300);
        assert_eq!(&frame[..2], &[0xac, 0x02]); // 300 = 0b10_0101100
    }
}
