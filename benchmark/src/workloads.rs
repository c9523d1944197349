//! The five workloads: what each registers, posts and executes. Everything
//! here is what a user's program would contain; measuring it is `harness`.

use crate::clock::now_ns;
use crate::harness::{Shared, ACC};
use crate::stats::{mix64, Hist};
use bytes::Bytes;
use prema::{Migratable, MobilePtr, Runtime};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Every workload runs on two ranks: the box has two processors, and a third
/// runnable thread would measure the OS scheduler.
pub const RANKS: usize = 2;
pub const H_UNIT: u32 = 1;

const FIG3_OBJECTS: usize = 1500;
const FIG3_HEAVY_ITERS: u64 = 1_000_000;
const FIG3_LIGHT_ITERS: u64 = 500_000;

const CHAT_OBJECTS_PER_RANK: usize = 256;
const CHAT_TOKENS_PER_RANK: usize = 64;
const CHAT_ITERS: u64 = 300;
const CHAT_REMOTE_ONE_IN: u64 = 8;
const CHAT_FINE_HOPS: u32 = 5_000;
const CHAT_UDP_HOPS: u32 = 800;
/// Chat ranks tell rank 0 about finished units this many at a time.
const CHAT_REPORT_EVERY: u64 = 256;

const HOTSPOT_OBJECTS: usize = 512;
const HOTSPOT_KICKS: u32 = 60;
const HOTSPOT_ITERS: u64 = 25_000;

const ARRIVAL_OBJECTS: usize = 64;
const ARRIVAL_ITERS: u64 = 100_000;
pub const ARRIVAL_PERIOD_NS: u64 = 200_000;
const ARRIVAL_UNITS: u64 = 2_500_000_000 / ARRIVAL_PERIOD_NS;

/// State carried by the objects that migrate in earnest.
const STATE_BYTES: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig3,
    Chat { hops: u32, udp: bool },
    Hotspot,
    Arrivals,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "fig3_coarse",
        why: "paper Fig-3 shape, millisecond units: handlers do >90% of the work, so runtime fast paths must not move it and balancing decisions do",
        kind: Kind::Fig3,
    },
    Spec {
        name: "chat_fine",
        why: "sub-microsecond handlers hopping between objects on the in-process ring: lock, ilb poll/begin/finish and mol routing are most of every unit",
        kind: Kind::Chat {
            hops: CHAT_FINE_HOPS,
            udp: false,
        },
    },
    Spec {
        name: "chat_udp",
        why: "the same chat over reliable UDP loopback sockets, the prema-launch worker stack: the wire does most of the work, ring changes must show nothing",
        kind: Kind::Chat {
            hops: CHAT_UDP_HOPS,
            udp: true,
        },
    },
    Spec {
        name: "hotspot_migrate",
        why: "quickstart shape, 512 objects of 4 KiB with deep queues all born on rank 0: migration, directory writes and how fast the balancer spreads a hotspot",
        kind: Kind::Hotspot,
    },
    Spec {
        name: "arrivals_open",
        why: "open loop, 5000 units/s on a fixed schedule into one rank: the only workload where arrival rate is an input and begging latency shows as turnaround",
        kind: Kind::Arrivals,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn udp(&self) -> bool {
        matches!(self.kind, Kind::Chat { udp: true, .. })
    }

    /// Work units one repeat executes.
    pub fn units(&self) -> u64 {
        match self.kind {
            Kind::Fig3 => FIG3_OBJECTS as u64,
            Kind::Chat { hops, .. } => (RANKS * CHAT_TOKENS_PER_RANK) as u64 * hops as u64,
            Kind::Hotspot => HOTSPOT_OBJECTS as u64 * HOTSPOT_KICKS as u64,
            Kind::Arrivals => ARRIVAL_UNITS,
        }
    }

    fn objects_on(&self, rank: usize) -> usize {
        match self.kind {
            Kind::Fig3 => FIG3_OBJECTS / RANKS,
            Kind::Chat { .. } => CHAT_OBJECTS_PER_RANK,
            Kind::Hotspot if rank == 0 => HOTSPOT_OBJECTS,
            Kind::Arrivals if rank == 0 => ARRIVAL_OBJECTS,
            Kind::Hotspot | Kind::Arrivals => 0,
        }
    }

    pub fn objects(&self) -> usize {
        (0..RANKS).map(|r| self.objects_on(r)).sum()
    }

    /// Exactly-once counters: one per token, per open-loop unit, or per
    /// object, and how often each must have been hit when the repeat ends.
    pub fn counter_slots(&self) -> (usize, u32) {
        match self.kind {
            Kind::Fig3 => (FIG3_OBJECTS, 1),
            Kind::Chat { hops, .. } => (RANKS * CHAT_TOKENS_PER_RANK, hops),
            Kind::Hotspot => (HOTSPOT_OBJECTS, HOTSPOT_KICKS),
            Kind::Arrivals => (ARRIVAL_UNITS as usize, 1),
        }
    }

    /// Handler iterations of object `id`: the shape's weight with a seeded
    /// ±10% jitter, so each seed is another instance of the same shape.
    fn work_of(&self, seed: u64, id: u32) -> u64 {
        let base = match self.kind {
            // Block distribution: the first half is born on rank 0, all heavy.
            Kind::Fig3 if (id as usize) < FIG3_OBJECTS / RANKS => FIG3_HEAVY_ITERS,
            Kind::Fig3 => FIG3_LIGHT_ITERS,
            Kind::Chat { .. } => return CHAT_ITERS,
            Kind::Hotspot => HOTSPOT_ITERS,
            Kind::Arrivals => return ARRIVAL_ITERS,
        };
        let jitter = mix64(mix64(seed) ^ id as u64) % 2001;
        base * (9000 + jitter) / 10_000
    }

    /// One number over everything a seed decides, printed with each run.
    pub fn schedule_hash(&self, seed: u64) -> u64 {
        let fold = |h: u64, v: u64| mix64(h ^ v);
        let objects = self.objects();
        match self.kind {
            Kind::Fig3 | Kind::Hotspot => {
                (0..objects as u32).fold(0, |h, id| fold(h, self.work_of(seed, id)))
            }
            Kind::Chat { hops, .. } => (0..(RANKS * CHAT_TOKENS_PER_RANK) as u32)
                .flat_map(|t| (0..hops.min(256)).map(move |h| (t, h)))
                .fold(0, |h, (t, hop)| {
                    fold(h, chat_partner(seed, t, hop, t, objects) as u64)
                }),
            Kind::Arrivals => (0..ARRIVAL_UNITS as u32)
                .fold(0, |h, u| fold(h, arrival_target(seed, u, objects) as u64)),
        }
    }
}

/// The object token `token` hops to after its `hop`-th unit on object `from`:
/// a uniform choice among the objects born on the same rank as `from`, or,
/// one time in `CHAT_REMOTE_ONE_IN`, among those born on the other rank.
pub fn chat_partner(seed: u64, token: u32, hop: u32, from: u32, objects: usize) -> usize {
    let h = mix64(mix64(seed) ^ ((token as u64) << 32 | hop as u64));
    let per_rank = objects / RANKS;
    let crosses = (h >> 32).is_multiple_of(CHAT_REMOTE_ONE_IN);
    let side = (from as usize / per_rank + crosses as usize) % RANKS;
    side * per_rank + (h % per_rank as u64) as usize
}

/// The object the `unit`-th scheduled arrival is addressed to.
pub fn arrival_target(seed: u64, unit: u32, objects: usize) -> usize {
    (mix64(mix64(seed ^ 0xA221_7A15) ^ unit as u64) % objects as u64) as usize
}

/// The mobile object of every workload.
pub struct Obj {
    pub id: u32,
    /// Rank that registered it.
    pub born: u32,
    /// Handler iterations per unit.
    pub work: u64,
    /// Units executed on this object so far; travels with it.
    pub kicks: u32,
    /// State that makes migration cost something; every byte is `id as u8`.
    pub pad: Vec<u8>,
}

impl Obj {
    pub fn pad_intact(&self) -> bool {
        self.pad.iter().all(|&b| b == self.id as u8)
    }
}

impl Migratable for Obj {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.born.to_le_bytes());
        buf.extend_from_slice(&self.work.to_le_bytes());
        buf.extend_from_slice(&self.kicks.to_le_bytes());
        buf.extend_from_slice(&self.pad);
    }

    fn unpack(b: &[u8]) -> Self {
        let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        Obj {
            id: word(0),
            born: word(4),
            work: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            kicks: word(16),
            pad: b[20..].to_vec(),
        }
    }

    fn packed_size(&self) -> usize {
        20 + self.pad.len()
    }
}

/// A unit's 16-byte payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Exactly-once counter this unit hits.
    pub slot: u32,
    /// Chat: hops the token has made. Hotspot: the kick's round, which must
    /// equal the object's `kicks` (per-object FIFO across migrations).
    pub seq: u32,
    /// When the unit was issued or due; 0 means at the start barrier.
    pub issued_ns: u64,
}

impl Msg {
    pub fn encode(self) -> Bytes {
        let mut b = [0u8; 16];
        b[..4].copy_from_slice(&self.slot.to_le_bytes());
        b[4..8].copy_from_slice(&self.seq.to_le_bytes());
        b[8..].copy_from_slice(&self.issued_ns.to_le_bytes());
        Bytes::copy_from_slice(&b)
    }

    pub fn decode(b: &[u8]) -> Msg {
        Msg {
            slot: u32::from_le_bytes(b[..4].try_into().expect("4 bytes")),
            seq: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
            issued_ns: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
        }
    }
}

/// The work itself: a fixed count of xorshift steps, never a calibrated time,
/// so the program is the same on every box and every run.
pub fn spin(iters: u64, salt: u64) -> u64 {
    let mut x = salt | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// What the rank's main loop needs beyond `step`.
#[derive(Default)]
pub struct Plan {
    /// Finished units are reported to rank 0 this many at a time.
    pub report_every: u64,
    pub generator: Option<Generator>,
    /// Initial posts made and the time they took.
    pub posts: u64,
    pub post_ns: u64,
}

/// Registers handler and objects, publishes their pointers, posts the initial
/// messages. Runs on every rank before the start barrier: this is `setup_s`.
pub fn setup(rt: &Runtime<Obj>, sh: &Arc<Shared>) -> Plan {
    let spec = sh.spec;
    let rank = rt.rank();
    let shared = sh.clone();
    let objects = spec.objects();
    let per_rank = objects / RANKS;
    rt.on_message(H_UNIT, move |ctx, obj: &mut Obj, item| {
        let sh = &*shared;
        let t0 = now_ns();
        let msg = Msg::decode(&item.payload);
        spin(obj.work, msg.slot as u64);
        let t1 = now_ns();
        let in_order = spec.kind != Kind::Hotspot || msg.seq == obj.kicks;
        obj.kicks += 1;
        match spec.kind {
            Kind::Chat { hops, .. } if msg.seq + 1 < hops => {
                let to = chat_partner(sh.seed, msg.slot, msg.seq, obj.id, objects);
                let ptr = sh.ptrs[to / per_rank]
                    .get()
                    .expect("published before start")[to % per_rank];
                let next = Msg {
                    slot: msg.slot,
                    seq: msg.seq + 1,
                    issued_ns: t1,
                };
                ctx.message_with_hint(ptr, H_UNIT, 1.0, next.encode());
            }
            Kind::Arrivals => {
                sh.executed.fetch_add(1, Relaxed);
            }
            _ => {}
        }
        ACC.with(|acc| {
            let acc = &mut *acc.borrow_mut();
            if acc.counts.is_empty() {
                acc.counts = vec![0; spec.counter_slots().0];
            }
            acc.counts[msg.slot as usize] += 1;
            acc.violations += !in_order as u64;
            acc.handler_ns += t1 - t0;
            let issued = if msg.issued_ns == 0 {
                acc.run_start_ns
            } else {
                msg.issued_ns
            };
            acc.turnaround.record(t1.saturating_sub(issued));
            if acc.first_foreign_ns == 0 && obj.born as usize != ctx.rank() {
                acc.first_foreign_ns = t1;
            }
        });
    });

    let first_id: usize = (0..rank).map(|r| spec.objects_on(r)).sum();
    let ptrs: Vec<MobilePtr> = (first_id..first_id + spec.objects_on(rank))
        .map(|id| {
            let id = id as u32;
            let state = match spec.kind {
                Kind::Hotspot | Kind::Arrivals => STATE_BYTES,
                Kind::Fig3 | Kind::Chat { .. } => 0,
            };
            rt.register(Obj {
                id,
                born: rank as u32,
                work: spec.work_of(sh.seed, id),
                kicks: 0,
                pad: vec![id as u8; state],
            })
        })
        .collect();
    sh.ptrs[rank]
        .set(ptrs)
        .expect("each rank publishes its pointers once");
    sh.registered.wait();
    let mine = sh.ptrs[rank].get().expect("set just above");

    let at_start = |slot: u32, seq: u32| {
        Msg {
            slot,
            seq,
            issued_ns: 0,
        }
        .encode()
    };
    let t0 = now_ns();
    let mut posts = 0;
    let mut post = |ptr: MobilePtr, payload: Bytes| {
        // Hints are the mean weight everywhere: the balancer is told nothing.
        rt.message_with_hint(ptr, H_UNIT, 1.0, payload);
        posts += 1;
    };
    match spec.kind {
        Kind::Fig3 => {
            for (i, &ptr) in mine.iter().enumerate() {
                post(ptr, at_start((first_id + i) as u32, 0));
            }
        }
        Kind::Chat { .. } => {
            for t in 0..CHAT_TOKENS_PER_RANK {
                let token = (rank * CHAT_TOKENS_PER_RANK + t) as u32;
                post(mine[t % mine.len()], at_start(token, 0));
            }
        }
        Kind::Hotspot => {
            for round in 0..HOTSPOT_KICKS {
                for (i, &ptr) in mine.iter().enumerate() {
                    post(ptr, at_start((first_id + i) as u32, round));
                }
            }
        }
        Kind::Arrivals => {}
    }
    Plan {
        report_every: match spec.kind {
            Kind::Chat { .. } => CHAT_REPORT_EVERY,
            _ => 1,
        },
        generator: (spec.kind == Kind::Arrivals && rank == 0).then(Generator::default),
        posts,
        post_ns: now_ns() - t0,
    }
}

/// The open loop's load generator, run from rank 0's main loop between
/// units: posts every arrival whose time has come, however the system is
/// doing, and keeps how late it ran.
#[derive(Default)]
pub struct Generator {
    next: u64,
    pub late: Hist,
    /// Most arrivals posted but not yet executed, seen at any post.
    pub backlog_max: u64,
    pub post_ns: u64,
}

impl Generator {
    pub fn posted(&self) -> u64 {
        self.next
    }

    pub fn post_due(&mut self, rt: &Runtime<Obj>, sh: &Shared, start_ns: u64) {
        let targets = sh.ptrs[0].get().expect("published before start");
        while self.next < ARRIVAL_UNITS {
            let due = start_ns + self.next * ARRIVAL_PERIOD_NS;
            let now = now_ns();
            if now < due {
                return;
            }
            self.late.record(now - due);
            let unit = self.next as u32;
            let msg = Msg {
                slot: unit,
                seq: 0,
                issued_ns: due,
            };
            let to = arrival_target(sh.seed, unit, targets.len());
            rt.message_with_hint(targets[to], H_UNIT, 1.0, msg.encode());
            self.post_ns += now_ns() - now;
            self.next += 1;
            let backlog = self.next - sh.executed.load(Relaxed).min(self.next);
            self.backlog_max = self.backlog_max.max(backlog);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &SPECS {
            // chat_udp hashes as chat_fine's first hops do; that is the point.
            let a = spec.schedule_hash(7);
            assert_eq!(a, spec.schedule_hash(7), "{}", spec.name);
            assert_ne!(a, spec.schedule_hash(8), "{}", spec.name);
        }
        let remote = (0..16_000)
            .filter(|&hop| chat_partner(1, 3, hop, 7, 512) >= 256)
            .count();
        assert!((1_800..2_200).contains(&remote), "{remote} of 16000 remote");
        assert!((0..1_000).all(|hop| chat_partner(1, 3, hop, 300, 512) < 512));
        assert!((0..5_000).all(|u| arrival_target(1, u, 64) < 64));
    }

    #[test]
    fn jitter_keeps_the_shape() {
        let fig3 = &SPECS[0];
        for id in 0..FIG3_OBJECTS as u32 {
            let w = fig3.work_of(42, id);
            let base = if (id as usize) < FIG3_OBJECTS / RANKS {
                FIG3_HEAVY_ITERS
            } else {
                FIG3_LIGHT_ITERS
            };
            assert!(w >= base * 9 / 10 && w <= base * 11 / 10, "{id}: {w}");
        }
    }

    #[test]
    fn payload_and_object_round_trip() {
        let m = Msg {
            slot: 127,
            seq: 19_999,
            issued_ns: u64::MAX - 5,
        };
        assert_eq!(Msg::decode(&m.encode()), m);
        let o = Obj {
            id: 300,
            born: 1,
            work: 25_000,
            kicks: 17,
            pad: vec![300u32 as u8; STATE_BYTES],
        };
        let mut buf = Vec::new();
        o.pack(&mut buf);
        assert_eq!(buf.len(), o.packed_size());
        let back = Obj::unpack(&buf);
        assert_eq!(
            (back.id, back.born, back.work, back.kicks),
            (300, 1, 25_000, 17)
        );
        assert!(back.pad_intact() && back.pad.len() == STATE_BYTES);
    }

    #[test]
    fn spin_time_grows_with_iterations() {
        let time = |iters| {
            let t0 = now_ns();
            spin(iters, 1);
            now_ns() - t0
        };
        time(100_000);
        assert!(time(4_000_000) > 4 * time(400_000) / 2);
    }

    #[test]
    fn names_are_unique_and_units_positive() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(a.units() > 0 && a.why.len() <= 200, "{}", a.name);
            assert!(SPECS[i + 1..].iter().all(|b| b.name != a.name));
            assert_eq!(Spec::by_name(a.name).map(|s| s.name), Some(a.name));
        }
    }
}
