//! Thread-local buffer pool for payload and frame construction.
//!
//! The substrate's hot paths — `WireWriter` encoders, the reliable and UDP
//! framers, MOL migrate packing — each used to allocate a fresh `Vec<u8>` per
//! message. Under the small-message regime the §4.2 fast path targets, that
//! allocator churn is a measurable slice of per-message cost. This module
//! keeps a **thread-local freelist** of emptied buffers in power-of-two size
//! classes so an encoder can take a warm buffer, freeze it into a payload,
//! and (once the payload's last owner drops it) hand the allocation back.
//!
//! Design points:
//!
//! * **Thread-local, no locks.** Every rank runs on its own thread; a send
//!   path never contends on a shared pool. A buffer recycled on a different
//!   thread than it was taken from simply refills that thread's freelist —
//!   allocations are plain `Vec`s, owned by whoever holds them.
//! * **Power-of-two size classes**, 64 B ([`MIN_POOLED`]) through 64 KiB
//!   ([`MAX_POOLED`]). Oversized buffers are never pooled (a one-off huge
//!   migrate must not pin its allocation forever); undersized requests round
//!   up to the smallest class.
//! * **Bounded capacity** ([`PER_CLASS_CAP`] buffers per class): a burst can
//!   not turn the pool into an unbounded leak. Overflow buffers just drop.
//! * **Best-effort recycling.** [`recycle`] only reclaims a `Bytes` whose
//!   storage is uniquely owned; payloads still shared with a decoder or a
//!   retransmit queue are left alone and returned `false`. Correctness never
//!   depends on a recycle succeeding — a miss is just an allocation.

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
    /// Buffers returned to the freelist by `recycle`.
    pub recycled: u64,
    /// `recycle` calls that could not reclaim (shared, static, oversized, or
    /// a full size class) — the allocation was simply dropped.
    pub rejected: u64,
}

struct ThreadPool {
    classes: [Vec<Vec<u8>>; NUM_CLASSES],
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
/// allocation when one is available.
pub fn take(min_cap: usize) -> BytesMut {
    BytesMut::from(take_vec(min_cap))
}

/// [`take`], as a raw `Vec<u8>` for callers that fill through `&mut Vec<u8>`
/// (MOL object packing).
pub fn take_vec(min_cap: usize) -> Vec<u8> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(class) = class_for_request(min_cap) {
            // Buffers in a class always have capacity >= the class size, and
            // the request rounds *up*, so any pooled buffer fits.
            if let Some(buf) = p.classes[class].pop() {
                p.stats.hits += 1;
                debug_assert!(buf.capacity() >= min_cap);
                return buf;
            }
        }
        p.stats.misses += 1;
        // Allocate at the class size (not the raw request) so the buffer
        // re-enters the same class it serves when it is recycled.
        let cap = match class_for_request(min_cap) {
            Some(class) => MIN_POOLED << class,
            None => min_cap,
        };
        Vec::with_capacity(cap)
    })
}

/// Fill a pooled scratch buffer through `fill` and freeze it into a payload.
/// This is the sanctioned way for hot paths to turn `&mut Vec<u8>`-style
/// packing APIs (MOL object packing) into a `Bytes` — the `batch-hygiene`
/// lint forbids raw `Bytes::from(vec…)` construction outside this module.
pub fn build<F: FnOnce(&mut Vec<u8>)>(min_cap: usize, fill: F) -> Bytes {
    let mut v = take_vec(min_cap);
    fill(&mut v);
    Bytes::from(v)
}

/// Return a payload's allocation to this thread's freelist.
///
/// Succeeds (and returns `true`) only when `bytes` was the sole owner of
/// poolable heap storage; otherwise the bytes drop normally. Always safe to
/// call — recycling is an optimization, never a requirement.
pub fn recycle(bytes: Bytes) -> bool {
    let Ok(v) = bytes.try_reclaim() else {
        POOL.with(|p| p.borrow_mut().stats.rejected += 1);
        return false;
    };
    recycle_vec(v)
}

/// [`recycle`] for an already-owned buffer (e.g. a drained scratch `Vec`).
pub fn recycle_vec(v: Vec<u8>) -> bool {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(class) = class_for_capacity(v.capacity()) {
            if p.classes[class].len() < PER_CLASS_CAP {
                let mut v = v;
                v.clear();
                p.classes[class].push(v);
                p.stats.recycled += 1;
                return true;
            }
        }
        p.stats.rejected += 1;
        false
    })
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
            let frozen = buf.freeze();
            assert!(recycle(frozen));
            let again = take(100);
            assert!(again.capacity() >= 100);
        });
        assert_eq!(d.recycled, 1);
        assert!(d.hits >= 1, "second take must hit the freelist: {d:?}");
    }

    #[test]
    fn shared_payload_is_not_reclaimed() {
        let d = delta(|| {
            let buf = take(64);
            let frozen = buf.freeze();
            let clone = frozen.clone();
            assert!(!recycle(frozen), "shared storage must not be pooled");
            drop(clone);
        });
        assert_eq!(d.recycled, 0);
        assert_eq!(d.rejected, 1);
    }

    #[test]
    fn static_and_oversized_are_rejected() {
        let d = delta(|| {
            assert!(!recycle(Bytes::from_static(b"abc")));
            assert!(!recycle_vec(Vec::with_capacity(MAX_POOLED * 2)));
            assert!(!recycle_vec(Vec::with_capacity(MIN_POOLED / 2)));
        });
        assert_eq!(d.rejected, 3);
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
            for _ in 0..(PER_CLASS_CAP + 8) {
                // Exact power-of-two capacity lands in one class.
                recycle_vec(Vec::with_capacity(1024));
            }
        });
        assert!(d.recycled <= PER_CLASS_CAP as u64);
        assert!(d.rejected >= 8);
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
