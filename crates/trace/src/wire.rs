//! The workspace's one LEB128 codec: unsigned varints, fixed-width
//! little-endian integers, `f64` bit patterns and a bounds-checked read
//! [`Cursor`], shared by the frame-trace format and the `etx-serve`
//! daemon protocol. Decoding is total: malformed input (say, from an
//! arbitrary TCP peer) yields a [`WireError`], never a panic.
//!
//! Every function is `#[inline]`: release builds run without LTO, and
//! the daemon's per-field calls must inline across the crate boundary.

/// A decode failure. Total: every malformed input maps here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field being decoded.
    Truncated,
    /// A varint ran past 64 bits.
    Overflow,
    /// A field held a value outside its documented range (bad frame
    /// type, bad result tag, bad magic, impossible count). The codec
    /// itself never returns this; the protocol decoders built on it do.
    Malformed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Overflow => write!(f, "varint overflows u64"),
            WireError::Malformed => write!(f, "malformed field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends `v` as 2 little-endian bytes.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 4 little-endian bytes.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as its bit pattern in 8 little-endian bytes (exact:
/// round-trips NaN payloads and signed zeros).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Bounds-checked forward reader over an encoded byte slice. Every
/// `take_*` fails with [`WireError::Truncated`] when the input ends
/// mid-field.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` once every byte has been consumed.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` bytes ([`WireError::Truncated`] when fewer remain).
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let bytes = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take_bytes(N)?);
        Ok(raw)
    }

    /// One byte ([`WireError::Truncated`] at the end of the input).
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A 2-byte little-endian integer.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// A 4-byte little-endian integer.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// An 8-byte little-endian integer.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// An `f64` from its 8-byte little-endian bit pattern.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        self.take_u64().map(f64::from_bits)
    }

    /// An unsigned LEB128 varint ([`WireError::Overflow`] past 64 bits).
    #[inline]
    pub fn take_uvarint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::Overflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let samples =
            [0u64, 1, 127, 128, 16_383, 16_384, 123_456_789, u64::from(u32::MAX), u64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            put_uvarint(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &samples {
            assert_eq!(cur.take_uvarint(), Ok(v));
        }
        assert!(cur.is_empty());
        assert_eq!(cur.position(), buf.len());
    }

    #[test]
    fn fixed_width_roundtrip_and_bounds() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(&buf[..2], &[0xef, 0xbe], "little-endian");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.take_u16(), Ok(0xbeef));
        assert_eq!(cur.take_u32(), Ok(0xdead_beef));
        assert_eq!(cur.take_u64(), Ok(0x0123_4567_89ab_cdef));
        assert_eq!(cur.take_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1.0e-300, f64::NAN] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.take_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn cursor_rejects_truncation_and_overflow() {
        let mut cur = Cursor::new(&[0x80]);
        assert_eq!(cur.take_uvarint(), Err(WireError::Truncated));
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.take_bytes(4), Err(WireError::Truncated));
        assert_eq!(cur.take_bytes(usize::MAX), Err(WireError::Truncated));
        assert_eq!(cur.position(), 0, "a failed fixed-width take consumes nothing");
        let mut cur = Cursor::new(&[0u8; 7]);
        assert_eq!(cur.take_f64(), Err(WireError::Truncated));
        assert_eq!(cur.take_u64(), Err(WireError::Truncated));
        assert_eq!(cur.take_u32(), Ok(0));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Ten continuation bytes run the shift past 64 bits.
        let mut cur = Cursor::new(&[0x80u8; 10]);
        assert_eq!(cur.take_uvarint(), Err(WireError::Overflow));
        // A tenth byte may carry only the top bit of a u64.
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert_eq!(cur.take_uvarint(), Err(WireError::Overflow));
        // Trace parsing reports it as a malformed field.
        assert_eq!(
            crate::TraceError::from(WireError::Overflow),
            crate::TraceError::Malformed("varint overflows u64")
        );
    }
}
