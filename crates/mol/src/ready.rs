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
//!   newest; each queued message names its lane and the position of the
//!   object's next one. Each resident object's directory entry (which every
//!   push already holds) remembers its lane, so neither push nor pop looks
//!   anything up, and nothing is allocated per object;
//! * a migrating object takes its messages out by walking its chain,
//!   leaving `None` holes behind that a later pop steps over — O(that
//!   object's queue), not O(the rank's);
//! * queue length, total weight and the lanes are updated on every push,
//!   pop and migration, so reading them is O(1) (O(k) for k lanes).

use crate::proto::MolEnvelope;
use crate::ptr::MobilePtr;
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

impl Weight {
    /// 2⁶⁴, the fixed-point scale.
    const SCALE: f64 = 18_446_744_073_709_551_616.0;

    /// The weight of one hint.
    pub fn of(hint: f64) -> Weight {
        // Scaling by a power of two is exact; the cast saturates (NaN and
        // negatives to 0, overflow to `u128::MAX`).
        Weight((hint * Self::SCALE) as u128)
    }

    pub fn add(&mut self, other: Weight) {
        self.0 = self.0.wrapping_add(other.0);
    }

    pub fn sub(&mut self, other: Weight) {
        self.0 = self.0.wrapping_sub(other.0);
    }

    /// The accumulated weight, rounded once to the nearest `f64`.
    pub fn get(self) -> f64 {
        self.0 as f64 / Self::SCALE
    }
}

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

/// A queued message, the lane that accounts for it, and where the same
/// object's next message sits (meaningful unless this is the lane's newest).
#[derive(Debug)]
struct Queued {
    env: MolEnvelope,
    lane: u32,
    next: u64,
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

    /// The queued messages with their absolute positions, oldest first.
    #[cfg(feature = "check-invariants")]
    pub fn queued(&self) -> impl Iterator<Item = (u64, &MolEnvelope)> {
        let base = self.base;
        self.queue
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| Some((base + i as u64, &slot.as_ref()?.env)))
    }

    /// The absolute positions `lane`'s chain visits, oldest first; `None`
    /// where it runs into a hole or off the queue.
    #[cfg(feature = "check-invariants")]
    pub fn chain<'a>(&'a self, lane: &'a Lane) -> impl Iterator<Item = Option<u64>> + 'a {
        let mut at = lane.head;
        (0..lane.count).map(move |_| {
            let i = at.checked_sub(self.base)? as usize;
            let q = self.queue.get(i)?.as_ref()?;
            Some(std::mem::replace(&mut at, q.next))
        })
    }

    /// The message queued at absolute position `at`.
    fn at_mut(&mut self, at: u64) -> &mut Option<Queued> {
        &mut self.queue[(at - self.base) as usize]
    }

    /// Append `env` to the queue. `lane` is the caller's memory of the lane
    /// its target used last, kept beside the resident object so that no
    /// lookup is needed here; it is checked (the lane may have been released
    /// and reclaimed since) and updated.
    pub fn push(&mut self, lane: &mut u32, env: MolEnvelope) {
        let held = self
            .lanes
            .get(*lane as usize)
            .is_some_and(|l| l.ptr == env.target);
        if !held {
            *lane = self.claim(env.target);
        }
        self.link(*lane, self.base + self.queue.len() as u64);
        let w = Weight::of(env.hint);
        self.lanes[*lane as usize].weight.add(w);
        self.weight.add(w);
        self.len += 1;
        self.queue.push_back(Some(Queued {
            env,
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
                .next = at;
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

    /// Remove the oldest queued message, stepping over (and freeing) holes.
    pub fn pop(&mut self) -> Option<MolEnvelope> {
        if self.len == 0 {
            // Whatever is left is holes.
            self.base += self.queue.len() as u64;
            self.queue.clear();
            return None;
        }
        let Queued { env, lane, next } = loop {
            let slot = self.queue.pop_front().expect("len counts stored messages");
            self.base += 1;
            if let Some(q) = slot {
                break q;
            }
        };
        let l = &mut self.lanes[lane as usize];
        debug_assert_eq!(l.head, self.base - 1, "per-object order is queue order");
        let w = Weight::of(env.hint);
        l.head = next;
        l.count -= 1;
        l.weight.sub(w);
        self.weight.sub(w);
        self.len -= 1;
        if l.count == 0 {
            self.release(lane);
        }
        Some(env)
    }

    /// Take a departing object's messages out of the queue, in order,
    /// leaving holes. `lane` is the caller's memory of its lane, as for
    /// [`ReadyIndex::push`].
    pub fn take_all(&mut self, lane: u32, ptr: MobilePtr) -> Vec<MolEnvelope> {
        let Some(l) = self.lanes.get_mut(lane as usize).filter(|l| l.ptr == ptr) else {
            return Vec::new();
        };
        let (count, mut at) = (std::mem::take(&mut l.count), l.head);
        self.weight.sub(std::mem::take(&mut l.weight));
        self.len -= count;
        self.release(lane);
        let taken = (0..count)
            .map(|_| {
                let q = self
                    .at_mut(at)
                    .take()
                    .expect("a lane's chain runs through queued messages");
                at = q.next;
                q.env
            })
            .collect();
        // Holes are only made here, so checking here keeps the queue within
        // twice its deepest backlog plus the slack. Closing them up is
        // O(queue), paid for by the holes: they outnumber the messages.
        if self.queue.len() > 2 * self.len + 64 {
            self.compact();
        }
        taken
    }

    /// Close up the holes and re-chain every lane through the new positions.
    fn compact(&mut self) {
        self.queue.retain(Option::is_some);
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
    fn a_hole_costs_no_more_than_a_message() {
        assert_eq!(
            std::mem::size_of::<Option<Queued>>(),
            std::mem::size_of::<Queued>()
        );
    }
}
