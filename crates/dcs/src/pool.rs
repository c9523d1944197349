//! Thread-local buffer pool for payload and frame construction.
//!
//! The substrate's hot paths — `WireWriter` encoders, the reliable and UDP
//! framers, MOL migrate packing — each used to allocate a fresh `Vec<u8>` per
//! message. Under the small-message regime the §4.2 fast path targets, that
//! allocator churn is a measurable slice of per-message cost. This module
//! keeps a **thread-local freelist** of emptied buffers in power-of-two size
//! classes so an encoder can take a warm buffer, freeze it into a payload,
//! and have the allocation back once the payload's last owner drops it.
//!
//! Design points:
//!
//! * **Buffers come home by themselves.** [`take`] hands out a
//!   [`BytesMut`] whose storage is *homed* (`BytesMut::homed` in the
//!   vendored `bytes`): freezing it allocates nothing, and when the last
//!   handle on the frozen payload drops, the storage — buffer and reference
//!   count box together — is handed back here, emptied. No caller recycles
//!   anything; a payload still shared with a decoder or a retransmit queue
//!   simply comes back later.
//! * **Thread-local, no locks.** Every rank runs on its own thread; a send
//!   path never contends on a shared pool. A buffer that comes home on a
//!   different thread than it was taken from refills that thread's freelist.
//! * **Power-of-two size classes**, 64 B ([`MIN_POOLED`]) through 64 KiB
//!   ([`MAX_POOLED`]). Oversized buffers are never pooled (a one-off huge
//!   migrate must not pin its allocation forever); undersized requests round
//!   up to the smallest class.
//! * **Bounded capacity** ([`PER_CLASS_CAP`] buffers per class): a burst can
//!   not turn the pool into an unbounded leak. Overflow buffers just drop.

use bytes::{Bytes, BytesMut};
use std::cell::RefCell;

/// Smallest pooled buffer capacity (bytes).
pub const MIN_POOLED: usize = 64;
/// Largest pooled buffer capacity (bytes); bigger allocations bypass the pool.
pub const MAX_POOLED: usize = 64 * 1024;
/// Maximum buffers retained per size class.
pub const PER_CLASS_CAP: usize = 32;

const MIN_SHIFT: u32 = MIN_POOLED.trailing_zeros(); // 6
const MAX_SHIFT: u32 = MAX_POOLED.trailing_zeros(); // 16
const NUM_CLASSES: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

/// Counters for one thread's pool (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the freelist.
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers that came home to the freelist.
    pub recycled: u64,
    /// Buffers that came home and were dropped: oversized, or their size
    /// class was full.
    pub rejected: u64,
}

struct ThreadPool {
    classes: [Vec<BytesMut>; NUM_CLASSES],
    stats: PoolStats,
}

impl ThreadPool {
    fn new() -> Self {
        ThreadPool {
            classes: std::array::from_fn(|_| Vec::new()),
            stats: PoolStats::default(),
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = RefCell::new(ThreadPool::new());
}

/// Size class index for a *request* of `min_cap` bytes: smallest class whose
/// buffers are guaranteed to hold it, or `None` if the request is oversized.
fn class_for_request(min_cap: usize) -> Option<usize> {
    if min_cap > MAX_POOLED {
        return None;
    }
    let cap = min_cap.max(MIN_POOLED).next_power_of_two();
    Some((cap.trailing_zeros() - MIN_SHIFT) as usize)
}

/// Size class index for a *returned* buffer of `capacity` bytes: largest
/// class it can serve, or `None` if it is too small or too large to pool.
fn class_for_capacity(capacity: usize) -> Option<usize> {
    if !(MIN_POOLED..=MAX_POOLED).contains(&capacity) {
        return None;
    }
    let shift = usize::BITS - 1 - capacity.leading_zeros(); // floor(log2)
    Some((shift - MIN_SHIFT) as usize)
}

/// Take a buffer with at least `min_cap` bytes of capacity, reusing a pooled
/// allocation when one is available. Its storage comes back to the pool of
/// whichever thread drops the last handle on it.
pub fn take(min_cap: usize) -> BytesMut {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let class = class_for_request(min_cap);
        // Buffers in a class always have capacity >= the class size, and
        // the request rounds *up*, so any pooled buffer fits.
        if let Some(buf) = class.and_then(|c| p.classes[c].pop()) {
            p.stats.hits += 1;
            debug_assert!(buf.capacity() >= min_cap);
            return buf;
        }
        p.stats.misses += 1;
        // Allocate at the class size (not the raw request) so the buffer
        // re-enters the same class it serves when it comes home.
        let cap = class.map_or(min_cap, |c| MIN_POOLED << c);
        BytesMut::homed(Vec::with_capacity(cap), come_home)
    })
}

/// Fill a pooled buffer through `fill` and freeze it into a payload. This is
/// the sanctioned way for hot paths to turn `&mut Vec<u8>`-style packing
/// APIs (MOL object packing) into a `Bytes` — the `batch-hygiene` lint
/// forbids raw `Bytes::from(vec…)` construction outside this module.
///
/// A buffer that `fill` grew past its class is frozen without a home: it
/// would come back to a bigger class than the one `min_cap` asks for, which
/// the next `build` would miss again, so every packed 4 KiB object would
/// park its buffer until that class filled up.
pub fn build<F: FnOnce(&mut Vec<u8>)>(min_cap: usize, fill: F) -> Bytes {
    let mut b = take(min_cap);
    let cap = b.capacity();
    fill(b.as_mut_vec());
    if b.capacity() == cap {
        return b.freeze();
    }
    Bytes::from(std::mem::take(b.as_mut_vec()))
}

/// Drop `bytes` without giving its storage to this thread's pool, if it is
/// the last handle on it: for payloads that flow one way between ranks, which
/// the receiving thread would only hoard.
///
/// Best effort: if another handle still shares the storage (a payload
/// longer than [`bytes::INLINE_CAP`] read out of it), the storage keeps its
/// home and goes to the pool of the thread that drops that handle.
pub fn discard(bytes: Bytes) {
    drop(bytes.try_reclaim());
}

/// Where a taken buffer's storage lands when its last handle drops. A
/// thread whose pool is already torn down just frees it.
fn come_home(buf: BytesMut) {
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        match class_for_capacity(buf.capacity()) {
            Some(class) if p.classes[class].len() < PER_CLASS_CAP => {
                p.classes[class].push(buf);
                p.stats.recycled += 1;
            }
            _ => p.stats.rejected += 1,
        }
    });
}

/// This thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Reset this thread's pool counters (benchmarks isolate phases with this).
pub fn reset_stats() {
    POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share a thread-local pool with each other only within one test
    /// thread; each test uses relative deltas, not absolute counters.
    fn delta<F: FnOnce()>(f: F) -> PoolStats {
        let before = stats();
        f();
        let after = stats();
        PoolStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            recycled: after.recycled - before.recycled,
            rejected: after.rejected - before.rejected,
        }
    }

    #[test]
    fn take_recycle_take_hits() {
        let d = delta(|| {
            let mut buf = take(100);
            use bytes::BufMut;
            buf.put_slice(&[7; 100]);
            drop(buf.freeze());
            let again = take(100);
            assert!(again.capacity() >= 100);
        });
        assert_eq!(d.recycled, 1, "the last drop brought it home: {d:?}");
        assert!(d.hits >= 1, "second take must hit the freelist: {d:?}");
    }

    #[test]
    fn shared_payload_is_not_reclaimed() {
        let d = delta(|| {
            let frozen = take(64).freeze();
            let clone = frozen.clone();
            let before = stats().recycled;
            drop(frozen);
            assert_eq!(stats().recycled, before, "a clone still reads it");
            drop(clone);
        });
        assert_eq!((d.recycled, d.rejected), (1, 0));
    }

    #[test]
    fn static_and_oversized_are_rejected() {
        let d = delta(|| {
            drop(Bytes::from_static(b"abc"));
            drop(take(MAX_POOLED * 2).freeze());
            discard(take(64).freeze());
        });
        assert_eq!(
            (d.recycled, d.rejected),
            (0, 1),
            "static storage has no home, an oversized one is turned away, \
             a discarded one never comes"
        );
    }

    #[test]
    fn oversized_take_allocates_directly() {
        let d = delta(|| {
            let big = take(MAX_POOLED + 1);
            assert!(big.capacity() > MAX_POOLED);
        });
        assert_eq!(d.misses, 1);
    }

    #[test]
    fn class_is_bounded() {
        let d = delta(|| {
            // All live at once, so none is reused: PER_CLASS_CAP + 8 come
            // home to one class.
            let held: Vec<Bytes> = (0..PER_CLASS_CAP + 8)
                .map(|_| take(1024).freeze())
                .collect();
            drop(held);
        });
        assert!(d.recycled <= PER_CLASS_CAP as u64);
        assert!(d.rejected >= 8);
    }

    /// A built payload that fit its class comes home; one that grew past it
    /// does not, so it cannot park in a class its next build never asks for.
    #[test]
    fn a_build_that_outgrew_its_class_does_not_come_home() {
        let d = delta(|| {
            drop(build(64, |v| v.extend_from_slice(&[1; 64])));
            drop(build(64, |v| v.extend_from_slice(&[2; 4096])));
        });
        assert_eq!((d.recycled, d.rejected), (1, 0));
    }

    #[test]
    fn request_rounds_up_capacity_rounds_down() {
        // A 65-byte request must map to the 128-class; a 127-capacity buffer
        // can only serve the 64-class.
        assert_eq!(class_for_request(65), class_for_capacity(128));
        assert_eq!(class_for_capacity(127), class_for_request(64));
        assert_eq!(class_for_request(0), class_for_request(MIN_POOLED));
        assert_eq!(class_for_request(MAX_POOLED + 1), None);
    }
}
