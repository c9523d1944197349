//! Tiny fixed-layout wire encoding helpers.
//!
//! DCS payloads are raw bytes; runtime-internal protocol messages (migration,
//! load balancing, termination) use these little-endian helpers rather than a
//! full serializer, keeping system messages small and allocation-light.

use crate::pool;
use bytes::{Buf, BufMut, Bytes, BytesMut, INLINE_CAP};

/// Incrementally build a payload.
#[derive(Default)]
pub struct WireWriter {
    buf: BytesMut,
}

// The fixed-width writers are `#[inline]`: the workspace builds without
// LTO, and each is one store plus a cold reserve that every MOL record
// header would otherwise reach through a cross-crate call.
impl WireWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer backed by a pooled buffer of at least `min_cap` bytes
    /// (see [`crate::pool`]). Hot-path encoders use this so steady-state
    /// message construction reuses allocations instead of growing fresh
    /// `Vec`s; the buffer returns to the pool when the finished payload's
    /// last handle drops.
    pub fn pooled(min_cap: usize) -> Self {
        WireWriter {
            buf: pool::take(min_cap),
        }
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append an `f64`.
    #[inline]
    pub fn f64(mut self, v: f64) -> Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte string.
    #[inline]
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
///
/// The readers are `#[inline]` for the reason the writers are: each is a
/// length test and a load, reached from another crate once per field of
/// every record decoded. `try_bytes` and `try_usize` are always inlined,
/// where the compiler's cost model would leave each record's read of them
/// a call.
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wrap a payload for reading.
    #[inline]
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    /// Read a `u64`, or `None` on underflow.
    ///
    /// Every reader is fallible: payloads arrive off the wire, and a
    /// truncated or hostile message must be droppable without aborting the
    /// rank. A failed read consumes nothing.
    #[inline]
    pub fn try_u64(&mut self) -> Option<u64> {
        if self.buf.remaining() < 8 {
            return None;
        }
        Some(self.buf.get_u64_le())
    }

    /// Read a `u32`, or `None` on underflow.
    #[inline]
    pub fn try_u32(&mut self) -> Option<u32> {
        if self.buf.remaining() < 4 {
            return None;
        }
        Some(self.buf.get_u32_le())
    }

    /// Read an `f64`, or `None` on underflow.
    #[inline]
    pub fn try_f64(&mut self) -> Option<f64> {
        if self.buf.remaining() < 8 {
            return None;
        }
        Some(self.buf.get_f64_le())
    }

    /// Read a length-prefixed byte string, or `None` on underflow (including
    /// a length prefix that exceeds the remaining payload).
    ///
    /// A string of at most [`INLINE_CAP`] bytes is copied into the handle;
    /// a longer one is a slice sharing the backing buffer. So a small
    /// payload that outlives its frame — a queued work unit — never pins
    /// the ring frame, datagram or migration packet it arrived in, and that
    /// buffer can go back to the [`crate::pool`] as soon as it is decoded.
    #[inline(always)]
    pub fn try_bytes(&mut self) -> Option<Bytes> {
        let len = self.try_u32()? as usize;
        if self.buf.remaining() < len {
            return None;
        }
        if len <= INLINE_CAP {
            let small = Bytes::copy_from_slice(&self.buf[..len]);
            self.buf.advance(len);
            return Some(small);
        }
        Some(self.buf.split_to(len))
    }

    /// Read a `u64` and narrow it to `usize`, returning `None` on underflow
    /// or if the value does not fit (a corrupt count on a 32-bit target must
    /// not truncate silently).
    #[inline(always)]
    pub fn try_usize(&mut self) -> Option<usize> {
        usize::try_from(self.try_u64()?).ok()
    }

    /// Bytes left unread.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Consume the reader, returning whatever is left of the backing buffer.
    ///
    /// After a full decode this is a zero-length handle on the original
    /// storage, which goes back to the [`crate::pool`] when it drops unless a
    /// decoded slice still shares it.
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
        assert_eq!(r.try_u64(), Some(u64::MAX));
        assert_eq!(r.try_u32(), Some(42));
        assert_eq!(r.try_f64(), Some(-1.5));
        assert_eq!(r.try_bytes().as_deref(), Some(&b"abc"[..]));
        assert_eq!(r.try_u64(), Some(7));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_byte_string() {
        let payload = WireWriter::new().bytes(b"").finish();
        let mut r = WireReader::new(payload);
        assert_eq!(r.try_bytes().map(|b| b.len()), Some(0));
    }

    /// A small read is a copy: once the reader is gone, the frame it came
    /// from has one owner again and goes back to the pool. A longer read
    /// still shares it.
    #[test]
    fn small_reads_leave_their_frame_reclaimable() {
        let frame = WireWriter::pooled(64)
            .bytes(&[7; INLINE_CAP])
            .bytes(&[8; INLINE_CAP + 1])
            .finish();
        let mut r = WireReader::new(frame.clone());
        let small = r.try_bytes().expect("a whole string");
        drop(r);
        assert_eq!(&small[..], &[7; INLINE_CAP][..]);
        let before = pool::stats().recycled;
        drop(frame);
        assert_eq!(
            pool::stats().recycled,
            before + 1,
            "a small read pins nothing"
        );

        let frame = WireWriter::new().bytes(&[8; INLINE_CAP + 1]).finish();
        let long = WireReader::new(frame.clone())
            .try_bytes()
            .expect("a whole string");
        let frame = frame.try_reclaim().expect_err("a long read shares");
        drop(long);
        assert!(frame.try_reclaim().is_ok());
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
        // Drop (the buffer goes home) and re-take: the encoding must still
        // be identical (a warm buffer carries no residue of its previous
        // contents).
        drop(pooled);
        let warm = WireWriter::pooled(32).u64(1).bytes(b"abc").finish();
        assert_eq!(fresh, warm);
    }
}
