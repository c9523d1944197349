//! Tiny fixed-layout wire encoding helpers.
//!
//! DCS payloads are raw bytes; runtime-internal protocol messages (migration,
//! load balancing, termination) use these little-endian helpers rather than a
//! full serializer, keeping system messages small and allocation-light.

use crate::pool;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Incrementally build a payload.
#[derive(Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer backed by a pooled buffer of at least `min_cap` bytes
    /// (see [`crate::pool`]). Hot-path encoders use this so steady-state
    /// message construction reuses allocations instead of growing fresh
    /// `Vec`s; the buffer returns to the pool when the finished payload's
    /// last owner recycles it (or is dropped — recycling is best-effort).
    pub fn pooled(min_cap: usize) -> Self {
        WireWriter {
            buf: pool::take(min_cap),
        }
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append an `f64`.
    pub fn f64(mut self, v: f64) -> Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Finish, producing the payload.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Sequentially decode a payload written by [`WireWriter`].
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wrap a payload for reading.
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> u64 {
        assert!(self.buf.remaining() >= 8, "wire underflow reading u64");
        self.buf.get_u64_le()
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> u32 {
        assert!(self.buf.remaining() >= 4, "wire underflow reading u32");
        self.buf.get_u32_le()
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> f64 {
        assert!(self.buf.remaining() >= 8, "wire underflow reading f64");
        self.buf.get_f64_le()
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Bytes {
        let len = self.u32() as usize;
        assert!(self.buf.remaining() >= len, "wire underflow reading bytes");
        if len == 0 {
            // Hand out a detached empty `Bytes` instead of a zero-length
            // slice of the backing buffer: a `split_to(0)` still clones the
            // storage handle, which would keep the buffer shared and defeat
            // a later `pool::recycle` of that buffer.
            return Bytes::new();
        }
        self.buf.split_to(len)
    }

    /// Read a `u64`, returning `None` on underflow instead of panicking.
    ///
    /// Use this (and the other `try_*` readers) when decoding payloads that
    /// arrived off the wire: a truncated or hostile message must be droppable
    /// without aborting the rank.
    pub fn try_u64(&mut self) -> Option<u64> {
        if self.buf.remaining() < 8 {
            return None;
        }
        Some(self.buf.get_u64_le())
    }

    /// Read a `u32`, returning `None` on underflow instead of panicking.
    pub fn try_u32(&mut self) -> Option<u32> {
        if self.buf.remaining() < 4 {
            return None;
        }
        Some(self.buf.get_u32_le())
    }

    /// Read an `f64`, returning `None` on underflow instead of panicking.
    pub fn try_f64(&mut self) -> Option<f64> {
        if self.buf.remaining() < 8 {
            return None;
        }
        Some(self.buf.get_f64_le())
    }

    /// Read a length-prefixed byte string, returning `None` on underflow
    /// (including a length prefix that exceeds the remaining payload).
    pub fn try_bytes(&mut self) -> Option<Bytes> {
        let len = self.try_u32()? as usize;
        if self.buf.remaining() < len {
            return None;
        }
        if len == 0 {
            // See `bytes`: keep zero-length reads from sharing the backing
            // buffer so it stays reclaimable.
            return Some(Bytes::new());
        }
        Some(self.buf.split_to(len))
    }

    /// Read a `u64` and narrow it to `usize`, returning `None` on underflow
    /// or if the value does not fit (a corrupt count on a 32-bit target must
    /// not truncate silently).
    pub fn try_usize(&mut self) -> Option<usize> {
        usize::try_from(self.try_u64()?).ok()
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Consume the reader, returning whatever is left of the backing buffer.
    ///
    /// After a full decode this is a zero-length handle on the original
    /// storage — exactly what [`crate::pool::recycle`] needs to reclaim the
    /// allocation when no decoded slice still shares it.
    pub fn into_inner(self) -> Bytes {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_fields() {
        let payload = WireWriter::new()
            .u64(u64::MAX)
            .u32(42)
            .f64(-1.5)
            .bytes(b"abc")
            .u64(7)
            .finish();
        let mut r = WireReader::new(payload);
        assert_eq!(r.u64(), u64::MAX);
        assert_eq!(r.u32(), 42);
        assert_eq!(r.f64(), -1.5);
        assert_eq!(&r.bytes()[..], b"abc");
        assert_eq!(r.u64(), 7);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_byte_string() {
        let payload = WireWriter::new().bytes(b"").finish();
        let mut r = WireReader::new(payload);
        assert_eq!(r.bytes().len(), 0);
    }

    #[test]
    #[should_panic(expected = "wire underflow")]
    fn underflow_panics() {
        let mut r = WireReader::new(Bytes::from_static(&[1, 2]));
        let _ = r.u64();
    }

    #[test]
    fn try_readers_return_none_on_underflow() {
        let mut r = WireReader::new(Bytes::from_static(&[1, 2]));
        assert_eq!(r.try_u64(), None);
        assert_eq!(r.try_f64(), None);
        assert_eq!(r.try_usize(), None);
        // The two bytes are still there: underflow must not consume.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.try_u32(), None);
    }

    #[test]
    fn try_bytes_rejects_oversized_length_prefix() {
        // Length prefix says 100 bytes but only 2 follow.
        let payload = WireWriter::new().u32(100).u32(0).finish();
        let mut r = WireReader::new(payload);
        assert_eq!(r.try_bytes(), None);
    }

    #[test]
    fn try_readers_roundtrip() {
        let payload = WireWriter::new().u64(9).f64(2.5).bytes(b"xy").finish();
        let mut r = WireReader::new(payload);
        assert_eq!(r.try_usize(), Some(9));
        assert_eq!(r.try_f64(), Some(2.5));
        assert_eq!(r.try_bytes().as_deref(), Some(&b"xy"[..]));
        assert_eq!(r.try_u64(), None);
    }

    #[test]
    fn pooled_writer_matches_fresh_writer() {
        let fresh = WireWriter::new().u64(1).bytes(b"abc").finish();
        let pooled = WireWriter::pooled(32).u64(1).bytes(b"abc").finish();
        assert_eq!(fresh, pooled);
        // Recycle and re-take: the encoding must still be identical (a warm
        // buffer carries no residue of its previous contents).
        assert!(pool::recycle(pooled));
        let warm = WireWriter::pooled(32).u64(1).bytes(b"abc").finish();
        assert_eq!(fresh, warm);
    }
}
