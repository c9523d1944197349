//! The ready-work index: one global arrival-order queue with lazy deletion,
//! each object's messages chained through it, and every load aggregate
//! maintained incrementally (DESIGN.md §17).
//!
//! A rank's accepted-but-unexecuted messages used to sit in one
//! `VecDeque<MolEnvelope>` that was summed for the load estimate, re-hashed
//! for the per-object summary and rotated end to end for every migration.
//! The queue is still there, and popping it still yields exactly the old
//! global FIFO order, but:
//!
//! * every object with pending work has a [`Lane`]: the count and summed
//!   weight of its messages and the queue positions of its oldest and
//!   newest; each queued message names its lane and how far behind it the
//!   object's next one sits. Each resident object's directory entry (which
//!   every push already holds) remembers its lane, so neither push nor pop
//!   looks anything up, and nothing is allocated per object;
//! * a migrating object takes its messages out by walking its chain,
//!   leaving `None` holes behind that a later pop steps over — O(that
//!   object's queue), not O(the rank's);
//! * queue length, total weight and the lanes are updated on every push,
//!   pop and migration, so reading them is O(1) (O(k) for k lanes);
//! * a queued message keeps only what running it needs (a [`Queued`]
//!   record): its target is its lane's, its routing state died when it was
//!   accepted, and its sequence number is implied by its object's ordering
//!   state, so a migration packet derives it ([`ReadyIndex::take_all`]).
//!   That is 48 bytes a slot, holes included, where the whole envelope took
//!   120; builds with the `check-invariants` oracles keep the number too,
//!   to check the derivation and the delivery order, at 56.

use crate::proto::Pending;
use crate::ptr::MobilePtr;
use bytes::Bytes;
use prema_dcs::{FxHashMap, Rank};
use std::collections::VecDeque;

/// An exact accumulator of weight hints: unsigned Q64.64 fixed point.
///
/// Integer add and subtract cancel exactly, so a weight that has had every
/// hint removed again is `0` by construction — never a stray ulp, never
/// negative, never NaN — and a running total equals the from-scratch sum no
/// matter how many pushes and pops lie between. (A peer *drops* a load
/// report whose weight is negative or non-finite, so float drift at an empty
/// queue would silently blind the balancer.) Hints that are NaN or negative
/// count as zero; finite hints from 2⁻¹¹ up convert exactly and smaller ones
/// to within 2⁻⁶⁴ absolute. Sums wrap modulo 2¹²⁸, so even an absurd
/// (infinite) hint is removed again without trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Weight(u128);

// `of` and `get` take the `f64` apart and put it together by hand, where
// `(hint * 2⁶⁴) as u128` and `u128 as f64 / 2⁶⁴` would call the compiler's
// `__fixunsdfti` and `__floatuntidf` once per queued unit; the results are
// the same bit for bit (`the_weight_is_the_scaled_cast_bit_for_bit`).
impl Weight {
    /// The weight of one hint: `hint · 2⁶⁴`, truncated toward zero, as the
    /// saturating cast would — NaN and negatives to 0, anything from 2⁶⁴
    /// up to `u128::MAX`.
    pub fn of(hint: f64) -> Weight {
        let bits = hint.to_bits();
        let biased = (bits >> 52) as u32; // sign bit included
        if hint.is_nan() || biased == 0 || biased >= 0x800 {
            // NaN, zero or subnormal (below 2⁻¹⁰²², so under 2⁻⁶⁴ scaled),
            // or negative.
            return Weight(0);
        }
        // hint = m · 2^(biased − 1075), so hint · 2⁶⁴ = m · 2^shift.
        let m = (bits & ((1 << 52) - 1)) | (1 << 52);
        let shift = biased as i32 - 1011;
        Weight(match shift {
            ..=-53 => 0,
            -52..=-1 => u128::from(m >> -shift),
            // m has 53 bits: up to 2^75 it fits (infinity lands past it).
            0..=75 => u128::from(m) << shift,
            _ => u128::MAX,
        })
    }

    pub fn add(&mut self, other: Weight) {
        self.0 = self.0.wrapping_add(other.0);
    }

    pub fn sub(&mut self, other: Weight) {
        self.0 = self.0.wrapping_sub(other.0);
    }

    /// The accumulated weight, rounded once to the nearest `f64`.
    pub fn get(self) -> f64 {
        let hi = (self.0 >> 64) as u64;
        if hi == 0 {
            // Under 2⁶⁴: the u64 conversion rounds, and 2⁻⁶⁴ scales exactly.
            return self.0 as u64 as f64 * TWO_TO_MINUS_64;
        }
        // Its top 64 bits, with every bit below them folded into the
        // lowest (a sticky bit: it breaks a tie, and is itself 11 places
        // below the last bit kept), round as the whole would; then scale
        // by the 2^(64 − lz) the shift took off, and 2⁻⁶⁴.
        let lz = hi.leading_zeros();
        let top = self.0 << lz;
        let kept = (top >> 64) as u64 | u64::from(top as u64 != 0);
        kept as f64 * f64::from_bits(u64::from(1023 - lz) << 52)
    }
}

/// 2⁻⁶⁴, the fixed-point unit.
const TWO_TO_MINUS_64: f64 = 1.0 / 18_446_744_073_709_551_616.0;

/// [`Lane`] index meaning "none yet".
pub(crate) const NO_LANE: u32 = u32::MAX;

/// One object's share of the queue. Lanes live in a slab; a lane is claimed
/// when an object gets its first pending message and released when its last
/// one is popped or leaves, so the occupied lanes *are* the list of objects
/// with pending work.
#[derive(Debug)]
pub(crate) struct Lane {
    /// The object, or [`MobilePtr::NULL`] while the lane is free.
    pub ptr: MobilePtr,
    /// Its queued messages.
    pub count: usize,
    /// Their summed weight.
    pub weight: Weight,
    /// Absolute queue position of the oldest (meaningful while `count > 0`);
    /// the rest follow by each message's `next`.
    head: u64,
    /// Absolute queue position of the newest.
    tail: u64,
}

/// A queued message: what running it needs, the lane that accounts for it
/// (and names its target), and how many positions behind it the same
/// object's next message sits (meaningful unless this is the lane's newest).
/// Ranks, handlers, lanes and distances are `u32`s so that the record and
/// its hole are six words (seven where the oracles keep `seq`).
#[derive(Debug)]
pub(crate) struct Queued {
    /// Original sender rank.
    pub sender: u32,
    /// Application-level handler id.
    pub handler: u32,
    /// Computational weight hint.
    pub hint: f64,
    /// Application payload.
    pub payload: Bytes,
    /// Per-(sender, target) sequence number: only the oracles read it.
    #[cfg(feature = "check-invariants")]
    pub seq: u64,
    lane: u32,
    next: u32,
}

impl Queued {
    /// The record a migration packet carries. Its sequence number is the
    /// stored one where there is one and 0 where not, until
    /// [`ReadyIndex::take_all`] derives it.
    fn pending(self) -> Pending {
        Pending {
            sender: self.sender as Rank,
            #[cfg(feature = "check-invariants")]
            seq: self.seq,
            #[cfg(not(feature = "check-invariants"))]
            seq: 0,
            handler: self.handler,
            hint: self.hint,
            payload: self.payload,
        }
    }
}

/// A rank's in-order messages awaiting execution.
#[derive(Debug, Default)]
pub(crate) struct ReadyIndex {
    /// Every queued message in arrival order. `None` is the hole left by a
    /// message that migrated away with its object.
    queue: VecDeque<Option<Queued>>,
    /// Absolute position of the queue's front: positions keep their meaning
    /// as the front is popped.
    base: u64,
    lanes: Vec<Lane>,
    /// Free lanes, for reuse.
    free: Vec<u32>,
    /// Queued messages (holes not counted).
    len: usize,
    /// Summed weight of the queued messages.
    weight: Weight,
}

impl ReadyIndex {
    /// Queued messages on this rank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Summed weight of the queued messages.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// The lanes in use: one per object with pending work, in no particular
    /// order. O(most objects that ever had pending work at once).
    pub fn lanes(&self) -> impl Iterator<Item = &Lane> {
        self.lanes.iter().filter(|l| !l.ptr.is_null())
    }

    /// Queue slots held, holes included.
    #[cfg(any(test, feature = "check-invariants"))]
    pub fn slots(&self) -> usize {
        self.queue.len()
    }

    /// Queue slots allocated: the held ones and the spare room.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The queued messages as `(absolute position, the object their lane
    /// names, hint)`, oldest first.
    #[cfg(feature = "check-invariants")]
    pub fn queued(&self) -> impl Iterator<Item = (u64, MobilePtr, f64)> + '_ {
        let base = self.base;
        self.queue.iter().enumerate().filter_map(move |(i, slot)| {
            let q = slot.as_ref()?;
            let target = self
                .lanes
                .get(q.lane as usize)
                .map_or(MobilePtr::NULL, |l| l.ptr);
            Some((base + i as u64, target, q.hint))
        })
    }

    /// The absolute positions `lane`'s chain visits, oldest first; `None`
    /// where it runs into a hole or off the queue.
    #[cfg(feature = "check-invariants")]
    pub fn chain<'a>(&'a self, lane: &'a Lane) -> impl Iterator<Item = Option<u64>> + 'a {
        let mut at = lane.head;
        (0..lane.count).map(move |_| {
            let i = at.checked_sub(self.base)? as usize;
            let next = at + u64::from(self.queue.get(i)?.as_ref()?.next);
            Some(std::mem::replace(&mut at, next))
        })
    }

    /// The message queued at absolute position `at`.
    fn at_mut(&mut self, at: u64) -> &mut Option<Queued> {
        &mut self.queue[(at - self.base) as usize]
    }

    /// Append a message for `target` to the queue. `lane` is the caller's
    /// memory of the lane `target` used last, kept beside the resident
    /// object so that no lookup is needed here; it is checked (the lane may
    /// have been released and reclaimed since) and updated.
    pub fn push(&mut self, lane: &mut u32, target: MobilePtr, p: Pending) {
        let held = self
            .lanes
            .get(*lane as usize)
            .is_some_and(|l| l.ptr == target);
        if !held {
            *lane = self.claim(target);
        }
        self.link(*lane, self.base + self.queue.len() as u64);
        let w = Weight::of(p.hint);
        self.lanes[*lane as usize].weight.add(w);
        self.weight.add(w);
        self.len += 1;
        self.queue.push_back(Some(Queued {
            sender: u32::try_from(p.sender).expect("decoders refuse a sender past u32::MAX"),
            handler: p.handler,
            hint: p.hint,
            payload: p.payload,
            #[cfg(feature = "check-invariants")]
            seq: p.seq,
            lane: *lane,
            next: 0,
        }));
    }

    /// Make `at` the newest position of `lane`'s chain.
    fn link(&mut self, lane: u32, at: u64) {
        let l = &mut self.lanes[lane as usize];
        let newest = std::mem::replace(&mut l.tail, at);
        l.count += 1;
        if l.count == 1 {
            l.head = at;
        } else {
            self.at_mut(newest)
                .as_mut()
                .expect("a lane's newest message is queued")
                .next = u32::try_from(at - newest).expect("a queue holds under 2^32 slots");
        }
    }

    fn claim(&mut self, ptr: MobilePtr) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.lanes[i as usize].ptr = ptr;
                i
            }
            None => {
                assert!(self.lanes.len() < NO_LANE as usize, "lane index overflow");
                self.lanes.push(Lane {
                    ptr,
                    count: 0,
                    weight: Weight::default(),
                    head: 0,
                    tail: 0,
                });
                (self.lanes.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        debug_assert!(l.count == 0 && l.weight == Weight::default());
        l.ptr = MobilePtr::NULL;
        self.free.push(lane);
    }

    /// Remove the oldest queued message, with its target, stepping over
    /// (and freeing) holes.
    pub fn pop(&mut self) -> Option<(MobilePtr, Queued)> {
        if self.len == 0 {
            // Whatever is left is holes.
            self.base += self.queue.len() as u64;
            self.queue.clear();
            return None;
        }
        let q = loop {
            let slot = self.queue.pop_front().expect("len counts stored messages");
            self.base += 1;
            if let Some(q) = slot {
                break q;
            }
        };
        let lane = q.lane;
        let l = &mut self.lanes[lane as usize];
        debug_assert_eq!(l.head, self.base - 1, "per-object order is queue order");
        let (target, w) = (l.ptr, Weight::of(q.hint));
        l.head += u64::from(q.next);
        l.count -= 1;
        l.weight.sub(w);
        self.weight.sub(w);
        self.len -= 1;
        if l.count == 0 {
            self.release(lane);
        }
        Some((target, q))
    }

    /// Take a departing object's messages out of the queue, in order,
    /// leaving holes. `lane` is the caller's memory of its lane, as for
    /// [`ReadyIndex::push`]; `expected` is the object's next sequence number
    /// to accept from each sender.
    ///
    /// Each sender's messages to the object were accepted in sequence order
    /// and are popped oldest first, so the ones still queued are the last
    /// that sender's count went past, in order: the newest is `expected - 1`,
    /// the one before it `expected - 2`, and so on.
    pub fn take_all(
        &mut self,
        lane: u32,
        ptr: MobilePtr,
        expected: &FxHashMap<Rank, u64>,
    ) -> Vec<Pending> {
        let Some(l) = self.lanes.get_mut(lane as usize).filter(|l| l.ptr == ptr) else {
            return Vec::new();
        };
        let (count, mut at) = (std::mem::take(&mut l.count), l.head);
        self.weight.sub(std::mem::take(&mut l.weight));
        self.len -= count;
        self.release(lane);
        let mut taken: Vec<Pending> = (0..count)
            .map(|_| {
                let q = self
                    .at_mut(at)
                    .take()
                    .expect("a lane's chain runs through queued messages");
                at += u64::from(q.next);
                q.pending()
            })
            .collect();
        // Newest first, each sender's count runs back down to the oldest.
        let mut next_seq = expected.clone();
        for p in taken.iter_mut().rev() {
            let seq = next_seq.entry(p.sender).or_default();
            *seq = seq.wrapping_sub(1);
            #[cfg(feature = "check-invariants")]
            assert_eq!(
                p.seq, *seq,
                "sequence oracle: a departing message from rank {} was accepted \
                 as seq {} but its object's ordering state derives {}",
                p.sender, p.seq, *seq
            );
            p.seq = *seq;
        }
        // Holes are only made here, so checking here keeps them within half
        // the live messages plus the slack. Closing them up is O(queue),
        // paid for by the holes: they are over a third of it.
        if self.queue.len() > self.len + self.len / 2 + 64 {
            self.compact();
        }
        debug_assert!(self.queue.len() <= self.len + self.len / 2 + 64);
        taken
    }

    /// Close up the holes, give back the room departed objects left behind,
    /// and re-chain every lane through the new positions.
    fn compact(&mut self) {
        self.queue.retain(Option::is_some);
        // Only here, so shrinking and regrowing cannot alternate: a shrink
        // costs O(live), paid for by the holes this compaction closed.
        if self.queue.capacity() > 2 * self.len + 64 {
            self.queue.shrink_to(self.len + self.len / 4 + 64);
        }
        debug_assert!(self.queue.capacity() <= 2 * self.len + 64);
        for l in &mut self.lanes {
            l.count = 0;
        }
        for i in 0..self.queue.len() {
            let lane = self.queue[i].as_ref().expect("holes just removed").lane;
            self.link(lane, self.base + i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop_assert_eq, prop_oneof, Just};

    /// 2⁶⁴, the scale of the casts `Weight` replaced.
    const SCALE: f64 = 18_446_744_073_709_551_616.0;

    proptest::proptest! {
        // A case is a few conversions; many cases reach every arm often.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// `Weight::of` and `Weight::get` agree bit for bit with the casts
        /// they replaced, `(hint · 2⁶⁴) as u128` and `raw as f64 / 2⁶⁴`,
        /// kept here as the oracle: on hints of every kind — finite,
        /// subnormal, negative, NaN, infinite, from 2⁶⁴ up — and on sums of
        /// every magnitude, rounding ties included.
        #[test]
        fn the_weight_is_the_scaled_cast_bit_for_bit(
            hint in prop_oneof![
                any::<f64>(),
                0.0..4.0,
                1e15..1e25,
                (0u64..1 << 52).prop_map(f64::from_bits),
                // Exponents from 2⁻¹²³ to 2⁷⁶, a full mantissa: scaled,
                // under 1, a right shift, a left shift, past 2¹²⁸.
                (900u64..1100, any::<u64>()).prop_map(|(e, m)| f64::from_bits(e << 52 | m >> 12)),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
                Just(-f64::NAN),
                Just(-0.0),
                Just(SCALE),
                Just(SCALE * SCALE),
                Just(f64::MIN_POSITIVE),
            ],
            (hi, lo, cut) in (any::<u64>(), any::<u64>(), 0u32..128),
            (m, at, sticky) in (1u64 << 52..1 << 53, 12u32..75, any::<bool>()),
        ) {
            prop_assert_eq!(Weight::of(hint).0, (hint * SCALE) as u128);
            let raw = ((u128::from(hi) << 64) | u128::from(lo)) >> cut;
            let tie = (u128::from(m) << at) | (1 << (at - 1)) | u128::from(sticky);
            for w in [raw, tie, Weight::of(hint).0] {
                prop_assert_eq!(Weight(w).get().to_bits(), (w as f64 / SCALE).to_bits());
            }
        }
    }

    #[test]
    fn weight_cancels_exactly() {
        let hints: Vec<f64> = (0..10_000)
            .map(|i| 0.9 + 0.2 * ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let mut w = Weight::default();
        for &h in &hints {
            w.add(Weight::of(h));
        }
        let sum: f64 = hints.iter().sum();
        assert!((w.get() - sum).abs() <= 1e-9 * sum);
        // Remove in a different order than added.
        for &h in hints.iter().rev() {
            w.sub(Weight::of(h));
        }
        assert_eq!(w, Weight::default());
        assert_eq!(w.get().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn weight_ignores_nonsense_and_survives_overflow() {
        let mut w = Weight::default();
        w.add(Weight::of(f64::NAN));
        w.add(Weight::of(-3.0));
        assert_eq!(w.get(), 0.0);
        w.add(Weight::of(1.5));
        w.add(Weight::of(f64::INFINITY));
        w.add(Weight::of(1e300));
        w.sub(Weight::of(f64::INFINITY));
        w.sub(Weight::of(1e300));
        assert_eq!(w.get(), 1.5);
    }

    #[test]
    fn departures_give_back_their_room() {
        const OBJECTS: u64 = 512;
        let mut ready = ReadyIndex::default();
        let mut lanes = vec![NO_LANE; OBJECTS as usize];
        // Index 0 is the null pointer.
        let ptr = |i: u64| MobilePtr {
            home: 0,
            index: i + 1,
        };
        for seq in 0..60 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let p = Pending {
                    sender: 0,
                    seq,
                    handler: seq as u32,
                    hint: 1.0,
                    payload: Bytes::new(),
                };
                ready.push(lane, ptr(i as u64), p);
            }
        }
        assert_eq!(ready.len(), 30_720);
        let expected = FxHashMap::from_iter([(0, 60)]);
        for i in (0..OBJECTS).filter(|i| i % 3 != 0) {
            let taken = ready.take_all(lanes[i as usize], ptr(i), &expected);
            assert_eq!(taken.len(), 60);
            assert!(ready.slots() <= ready.len() + ready.len() / 2 + 64);
        }
        assert_eq!(ready.len(), 171 * 60);
        assert!(
            ready.capacity() <= 2 * ready.len() + 64,
            "{} slots allocated for {} messages",
            ready.capacity(),
            ready.len()
        );
        // What stayed still pops in arrival order.
        for seq in 0..60 {
            for i in (0..OBJECTS).step_by(3) {
                let (target, q) = ready.pop().expect("queued");
                assert_eq!((target, q.handler), (ptr(i), seq));
            }
        }
        assert!(ready.pop().is_none());
    }

    /// Queue the next message from `sender` to `target`, its seq counted in
    /// `next` and repeated in its handler id.
    fn accept(
        ready: &mut ReadyIndex,
        lane: &mut u32,
        next: &mut FxHashMap<(MobilePtr, Rank), u64>,
        target: MobilePtr,
        sender: Rank,
    ) {
        let seq = next.entry((target, sender)).or_default();
        let p = Pending {
            sender,
            seq: *seq,
            handler: *seq as u32,
            hint: 1.0,
            payload: Bytes::new(),
        };
        *seq += 1;
        ready.push(lane, target, p);
    }

    /// `target`'s ordering state: its next seq from each sender.
    fn expected_of(
        next: &FxHashMap<(MobilePtr, Rank), u64>,
        target: MobilePtr,
    ) -> FxHashMap<Rank, u64> {
        next.iter()
            .filter(|((p, _), _)| *p == target)
            .map(|(&(_, s), &n)| (s, n))
            .collect()
    }

    /// One object's queue interleaves three senders with another object's
    /// messages, which have left (holes) and come back, and its oldest
    /// messages have run: the seqs its departure derives are the ones each
    /// message was accepted under.
    #[test]
    fn a_departure_derives_each_senders_seqs() {
        let (obj, other) = (
            MobilePtr { home: 0, index: 1 },
            MobilePtr { home: 0, index: 2 },
        );
        let mut ready = ReadyIndex::default();
        let (mut lane, mut other_lane) = (NO_LANE, NO_LANE);
        let mut next = FxHashMap::default();
        for i in 0..40 {
            accept(&mut ready, &mut lane, &mut next, obj, [3, 0, 7][i % 3]);
            if i % 2 == 0 {
                accept(&mut ready, &mut other_lane, &mut next, other, 5);
            }
            if i % 4 == 3 {
                accept(&mut ready, &mut lane, &mut next, obj, 7);
            }
        }
        let ran = (0..9)
            .filter(|_| ready.pop().expect("queued").0 == obj)
            .count();
        let left = ready.take_all(other_lane, other, &expected_of(&next, other));
        assert!(!left.is_empty());
        for _ in 0..3 {
            accept(&mut ready, &mut other_lane, &mut next, other, 5);
            accept(&mut ready, &mut lane, &mut next, obj, 0);
        }
        let expected = expected_of(&next, obj);
        let taken = ready.take_all(lane, obj, &expected);
        assert_eq!(
            taken.len() as u64,
            expected.values().sum::<u64>() - ran as u64
        );
        let mut newest = FxHashMap::default();
        for p in &taken {
            assert_eq!(p.seq, u64::from(p.handler), "rank {}'s message", p.sender);
            if let Some(prev) = newest.insert(p.sender, p.seq) {
                assert_eq!(p.seq, prev + 1, "rank {}'s run has a gap", p.sender);
            }
        }
        for (s, n) in expected {
            assert_eq!(newest[&s], n - 1, "rank {s}'s newest message left");
        }
    }

    #[test]
    fn a_hole_costs_no_more_than_a_message() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Queued>>(), size_of::<Queued>());
        #[cfg(not(feature = "check-invariants"))]
        assert!(size_of::<Option<Queued>>() <= 48);
        #[cfg(feature = "check-invariants")]
        assert!(size_of::<Option<Queued>>() <= 56);
    }
}
