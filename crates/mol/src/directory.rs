//! The sharded mobile-object directory (DESIGN.md §16).
//!
//! The original MOL resolves a stale mobile pointer by chasing forward
//! pointers along the object's migration trail — correct, but the chain grows
//! with migration history, and the object's *birth* rank (`ptr.home`) is the
//! only rank every cold sender falls back to, making it a hotspot. This
//! module shards location authority across ranks instead:
//!
//! * [`shard_of`] maps every [`MobilePtr`] to one deterministic **home
//!   shard** by hashing its id. The map is a pure function of the pointer and
//!   the fixed rank count — no state, no messages, nothing to rebalance.
//!   (Elastic membership — ranks joining/leaving and pointers re-homing — is
//!   deliberately out of scope; a rendezvous or Kademlia-style map can slot
//!   in behind this function later without touching the protocol.)
//! * [`ShardAuthority`] is the shard-side table: the freshest published
//!   `(owner, epoch)` per pointer. Only objects that have *migrated* occupy
//!   an entry — a never-migrated object is implicitly at `ptr.home`, so
//!   registration costs zero messages and zero authority state. At millions
//!   of mostly-stationary objects each rank holds roughly
//!   `migrated_objects / nprocs` entries.
//! * [`LocCache`] is the sender-side bounded cache: epoch-stamped
//!   `(owner, epoch)` guesses, LRU-evicted (two-generation approximation),
//!   sized by `PREMA_LOC_CACHE`. A hit sends directly; a miss or stale guess
//!   costs one bounded redirect through the home shard, never an unbounded
//!   trail walk.
//!
//! # The chain bound
//!
//! With the shard in the loop, a message's forwarding chain is bounded by a
//! constant instead of by migration history. On a reliable wire with no
//! migration in flight:
//!
//! * cache hit, fresh: **0** hops;
//! * cache miss: sender → shard → owner = **1** forward;
//! * cache hit, stale: sender → old owner → shard → owner = **2** forwards
//!   (the stale rank redirects through the shard rather than walking its
//!   trail — that redirect is what makes the bound constant).
//!
//! Every migration that commits *while the message is in flight* can add one
//! more hop (the shard's answer goes stale under the message, and the
//! departed rank's forward pointer — strictly newer than the shard's answer —
//! covers the gap). [`MAX_CHAIN`] documents the steady-state bound with slack
//! for two in-flight migrations; regression tests and CI assert the p99 chain
//! length against it. [`HARD_CHAIN_LIMIT`] is the invariant oracle's
//! routing-loop backstop: under seeded loss of publishes the protocol
//! *degrades* to trail forwarding (never wedges), so chains may legitimately
//! exceed [`MAX_CHAIN`] there, but a genuine routing loop blows through the
//! hard limit within one poll.

use crate::ptr::MobilePtr;
use prema_dcs::{FxHashMap, Rank};

/// Steady-state forwarding-chain bound: at most 2 hops on a quiescent
/// reliable wire (stale cache → shard redirect → owner), plus slack for two
/// migrations committing while the message is in flight. Scenario tests and
/// the CI chain-bound regression assert the delivered p99 chain length
/// against this constant.
pub const MAX_CHAIN: u32 = 4;

/// Routing-loop backstop asserted unconditionally by the invariant oracle on
/// every forward. Distinct from [`MAX_CHAIN`]: under chaos (lost publishes /
/// lost answers) the protocol degrades to walking migration trails, whose
/// length is bounded by migration history, not by a constant — but a real
/// routing loop revisits ranks forever and trips this limit within one poll.
pub const HARD_CHAIN_LIMIT: u32 = 512;

/// Default [`LocCache`] capacity (entries) when `PREMA_LOC_CACHE` is unset.
pub const LOC_CACHE_DEFAULT: usize = 4096;

/// Buckets in the delivered chain-length histogram kept by
/// [`crate::MolStats`]; the last bucket counts "that long or longer".
pub const CHAIN_HIST_BUCKETS: usize = 16;

/// A rank forwarding a message whose chase has already run this many hops
/// also re-publishes its own best knowledge to the home shard: a deep chase
/// means some publish was lost, and the repair heals the shard without any
/// extra protocol machinery.
pub const REPAIR_HOPS: u32 = 3;

/// The deterministic home shard of a pointer at a fixed rank count: a
/// splitmix64-style hash of the pointer id reduced mod `nprocs`. Pure
/// function — every rank computes the same shard with no coordination.
pub fn shard_of(ptr: MobilePtr, nprocs: usize) -> Rank {
    debug_assert!(nprocs > 0, "shard_of over an empty machine");
    let mut x = ptr.index ^ (ptr.home as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % nprocs as u64) as Rank
}

/// Bounded sender-side location cache: epoch-stamped `(owner, epoch)`
/// guesses with two-generation LRU eviction.
///
/// Lookups probe the *hot* generation, then the *cold* one (promoting on
/// hit). When the hot generation fills, it becomes the cold one and the old
/// cold generation — everything not touched for a full generation — is
/// dropped wholesale. O(1) amortized per operation, never more than
/// `capacity` entries total, and no per-entry clock or linked list.
#[derive(Debug)]
pub struct LocCache {
    /// Per-generation entry limit (half the total capacity).
    gen_cap: usize,
    hot: FxHashMap<MobilePtr, (Rank, u64)>,
    cold: FxHashMap<MobilePtr, (Rank, u64)>,
}

impl LocCache {
    /// A cache bounded at `capacity` total entries (floored at 2).
    pub fn new(capacity: usize) -> Self {
        LocCache {
            gen_cap: (capacity.max(2)) / 2,
            hot: FxHashMap::default(),
            cold: FxHashMap::default(),
        }
    }

    /// Total entry bound.
    pub fn capacity(&self) -> usize {
        self.gen_cap * 2
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.cold.is_empty()
    }

    /// Look up a pointer, promoting a cold hit into the hot generation.
    pub fn get(&mut self, ptr: MobilePtr) -> Option<(Rank, u64)> {
        if let Some(&v) = self.hot.get(&ptr) {
            return Some(v);
        }
        let v = self.cold.remove(&ptr)?;
        self.insert_hot(ptr, v);
        Some(v)
    }

    /// Look up without touching recency (used by epoch guards, not routing).
    pub fn peek(&self, ptr: MobilePtr) -> Option<(Rank, u64)> {
        self.hot.get(&ptr).or_else(|| self.cold.get(&ptr)).copied()
    }

    /// Merge a location fact, keeping the freshest epoch. Returns `true` if
    /// the cache advanced (new entry or strictly newer epoch).
    pub fn insert_max(&mut self, ptr: MobilePtr, owner: Rank, epoch: u64) -> bool {
        if let Some((_, have)) = self.peek(ptr) {
            if have >= epoch {
                return false;
            }
        }
        self.cold.remove(&ptr);
        self.insert_hot(ptr, (owner, epoch));
        true
    }

    /// Drop a pointer (it became resident here — any cached location for it
    /// is stale by definition).
    pub fn remove(&mut self, ptr: MobilePtr) {
        self.hot.remove(&ptr);
        self.cold.remove(&ptr);
    }

    fn insert_hot(&mut self, ptr: MobilePtr, v: (Rank, u64)) {
        if self.hot.len() >= self.gen_cap && !self.hot.contains_key(&ptr) {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(ptr, v);
    }
}

/// Shard-side location authority: the freshest published `(owner, epoch)`
/// per pointer this rank is the home shard for.
#[derive(Debug, Default)]
pub struct ShardAuthority {
    published: FxHashMap<MobilePtr, (Rank, u64)>,
}

impl ShardAuthority {
    /// Merge a published location, keeping the freshest epoch. Returns `true`
    /// if the authority advanced. Publishes are idempotent and commutative
    /// (epoch-max), so duplicated or reordered wire delivery is harmless.
    pub fn publish(&mut self, ptr: MobilePtr, owner: Rank, epoch: u64) -> bool {
        match self.published.get_mut(&ptr) {
            Some(slot) if slot.1 >= epoch => false,
            Some(slot) => {
                *slot = (owner, epoch);
                true
            }
            None => {
                self.published.insert(ptr, (owner, epoch));
                true
            }
        }
    }

    /// The freshest published location, if any object under this shard's
    /// authority has ever migrated. `None` means "never published" — the
    /// object (if it exists) is implicitly at `ptr.home`.
    pub fn lookup(&self, ptr: MobilePtr) -> Option<(Rank, u64)> {
        self.published.get(&ptr).copied()
    }

    /// Number of pointers with a published location.
    pub fn len(&self) -> usize {
        self.published.len()
    }

    /// Whether nothing has been published to this shard.
    pub fn is_empty(&self) -> bool {
        self.published.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(home: usize, index: u64) -> MobilePtr {
        MobilePtr { home, index }
    }

    #[test]
    fn shard_map_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8, 32, 128] {
            for home in 0..4 {
                for index in 1..200 {
                    let p = ptr(home, index);
                    let s = shard_of(p, n);
                    assert!(s < n);
                    assert_eq!(s, shard_of(p, n), "pure function of (ptr, nprocs)");
                }
            }
        }
    }

    #[test]
    fn shard_map_spreads_across_ranks() {
        // 800 pointers over 8 ranks: every rank must be somebody's shard and
        // no rank may be the shard for the majority (the anti-hotspot point).
        let n = 8;
        let mut counts = vec![0usize; n];
        for home in 0..4 {
            for index in 1..201 {
                counts[shard_of(ptr(home, index), n)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "unused shard: {counts:?}");
        assert!(counts.iter().all(|&c| c < 400), "hotspot shard: {counts:?}");
    }

    #[test]
    fn cache_keeps_freshest_epoch() {
        let mut c = LocCache::new(8);
        assert!(c.insert_max(ptr(0, 1), 3, 5));
        assert!(!c.insert_max(ptr(0, 1), 9, 4), "older epoch must lose");
        assert!(!c.insert_max(ptr(0, 1), 9, 5), "equal epoch must lose");
        assert_eq!(c.get(ptr(0, 1)), Some((3, 5)));
        assert!(c.insert_max(ptr(0, 1), 9, 6));
        assert_eq!(c.get(ptr(0, 1)), Some((9, 6)));
    }

    #[test]
    fn cache_is_bounded_and_evicts_cold_entries() {
        let cap = 8;
        let mut c = LocCache::new(cap);
        for i in 1..=100 {
            c.insert_max(ptr(0, i), 1, 1);
            assert!(c.len() <= c.capacity(), "len {} > cap {}", c.len(), cap);
        }
        // The most recent insert always survives; something old was evicted.
        assert_eq!(c.get(ptr(0, 100)), Some((1, 1)));
        assert!(
            c.get(ptr(0, 1)).is_none(),
            "ancient entry survived eviction"
        );
    }

    #[test]
    fn cache_promotes_recently_used_entries() {
        let mut c = LocCache::new(4); // generations of 2
        c.insert_max(ptr(0, 1), 1, 1);
        c.insert_max(ptr(0, 2), 1, 1); // hot full: {1,2}
        c.insert_max(ptr(0, 3), 1, 1); // rotate: cold={1,2}, hot={3}
        assert_eq!(c.get(ptr(0, 1)), Some((1, 1))); // promote 1: hot={3,1}
        c.insert_max(ptr(0, 4), 1, 1); // rotate: cold={3,1}, hot={4}
        c.insert_max(ptr(0, 5), 1, 1); // hot={4,5}; old cold {2} long gone
        assert_eq!(
            c.get(ptr(0, 1)),
            Some((1, 1)),
            "recently-used entry evicted"
        );
        assert!(c.get(ptr(0, 2)).is_none());
    }

    #[test]
    fn cache_remove_clears_both_generations() {
        let mut c = LocCache::new(4);
        c.insert_max(ptr(0, 1), 1, 1);
        c.insert_max(ptr(0, 2), 1, 1);
        c.insert_max(ptr(0, 3), 1, 1); // 1 and 2 now cold
        c.remove(ptr(0, 1));
        c.remove(ptr(0, 3));
        assert!(c.get(ptr(0, 1)).is_none());
        assert!(c.get(ptr(0, 3)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn authority_is_epoch_monotonic() {
        let mut a = ShardAuthority::default();
        assert_eq!(a.lookup(ptr(0, 1)), None);
        assert!(a.publish(ptr(0, 1), 2, 1));
        assert!(!a.publish(ptr(0, 1), 7, 1), "replayed publish must not win");
        assert!(!a.publish(ptr(0, 1), 7, 0), "older publish must not win");
        assert_eq!(a.lookup(ptr(0, 1)), Some((2, 1)));
        assert!(a.publish(ptr(0, 1), 7, 3), "out-of-order newer epoch wins");
        assert_eq!(a.lookup(ptr(0, 1)), Some((7, 3)));
        assert_eq!(a.len(), 1);
    }
}
