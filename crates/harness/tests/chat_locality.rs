//! Balancing must not scramble who talks to whom (DESIGN.md §21).
//!
//! The end-to-end ledger's chat, on the simulator's clock: objects born on
//! each of two ranks, tokens hopping between them, one hop in eight addressed
//! to an object born on the *other* rank than the one the token sits on. A
//! closed two-server network random-walks until one rank runs dry, so ranks
//! do steal from each other, and every steal is legitimate. What the grant
//! hands over decides what the chat costs afterwards: an object that leaves
//! its partners behind turns seven of its eight messages into remote ones,
//! until it is the one sent home.

use bytes::Bytes;
use prema::PremaConfig;
use prema_harness::simrank::{self, mflop_payload};
use prema_mol::{Migratable, MobilePtr};
use prema_sim::MachineConfig;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

const RANKS: usize = 2;
const OBJECTS_PER_RANK: usize = 256;
const TOKENS_PER_RANK: usize = 64;
const HOPS: u32 = 2_000;
const REMOTE_ONE_IN: u64 = 8;
/// 100 µs on the 333 Mflop/s test machine.
const UNIT_MFLOP: f64 = 0.0333;
const H_HOP: u32 = 1;

/// A chat object knows only which rank registered it.
struct Chatter {
    born: u32,
}

impl Migratable for Chatter {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.born.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Chatter {
            born: u32::from_le_bytes(b[..4].try_into().expect("4 bytes")),
        }
    }
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where token `token` goes after its `hop`-th unit, on an object born on
/// rank `born`: `(birth rank, index)` of a uniform choice among the objects
/// born on the same rank, or, one time in eight, on the other.
fn partner(token: u32, hop: u32, born: usize) -> (usize, usize) {
    let h = mix64(mix64(20) ^ ((token as u64) << 32 | hop as u64));
    let crosses = (h >> 32).is_multiple_of(REMOTE_ONE_IN);
    (
        (born + crosses as usize) % RANKS,
        (h % OBJECTS_PER_RANK as u64) as usize,
    )
}

/// `[mflop, token, hops made]`: the cost first, as `simrank` reads it.
fn payload(token: u32, hop: u32) -> Bytes {
    let mut b = mflop_payload(UNIT_MFLOP).to_vec();
    b.extend_from_slice(&token.to_le_bytes());
    b.extend_from_slice(&hop.to_le_bytes());
    Bytes::from(b)
}

#[test]
fn stealing_leaves_the_chat_mostly_local() {
    let ptrs: Arc<[OnceLock<Vec<MobilePtr>>; RANKS]> = Arc::default();
    // Units whose message was sent from another rank than the one that ran
    // them: the remote application sends, counted where they are consumed.
    let remote = Arc::new(AtomicU64::new(0));
    let units = (RANKS * TOKENS_PER_RANK) as u64 * HOPS as u64;

    let run = simrank::run::<Chatter>(
        MachineConfig::small(RANKS),
        &PremaConfig::implicit(RANKS),
        units,
        None,
        Vec::new(),
        |sched| {
            let rank = sched.rank();
            let (all, remote) = (ptrs.clone(), remote.clone());
            sched.on_message(H_HOP, move |ctx, obj: &mut Chatter, item| {
                if item.sender != ctx.rank() {
                    remote.fetch_add(1, Relaxed);
                }
                let word = |at: usize| {
                    u32::from_le_bytes(item.payload[at..at + 4].try_into().expect("4 bytes"))
                };
                let (token, hop) = (word(8), word(12));
                if hop + 1 < HOPS {
                    let (side, index) = partner(token, hop, obj.born as usize);
                    let to = all[side].get().expect("registered before the first unit")[index];
                    ctx.message(to, H_HOP, payload(token, hop + 1));
                }
            });
            let mine: Vec<MobilePtr> = (0..OBJECTS_PER_RANK)
                .map(|_| sched.node_mut().register(Chatter { born: rank as u32 }))
                .collect();
            for (t, &ptr) in mine.iter().take(TOKENS_PER_RANK).enumerate() {
                let token = (rank * TOKENS_PER_RANK + t) as u32;
                sched.node_mut().message(ptr, H_HOP, payload(token, 0));
            }
            ptrs[rank].set(mine).expect("each rank populates once");
        },
    );

    let executed: u64 = run.sched.iter().map(|s| s.executed).sum();
    assert_eq!(executed, units);
    let granted: u64 = run.sched.iter().map(|s| s.granted).sum();
    let granted_affine: u64 = run.sched.iter().map(|s| s.granted_affine).sum();
    let share = remote.load(Relaxed) as f64 / units as f64;
    eprintln!(
        "chat on SimRank: {units} units, {} remote sends (share {share:.3}), \
         granted {granted}, granted_affine {granted_affine}, makespan {}",
        remote.load(Relaxed),
        run.report.makespan
    );
    // The ranks did steal, and some of what they stole was sent home again.
    assert!(granted > 0 && granted_affine > 0);
    // The workload itself crosses one hop in eight (0.125); this run reads
    // 0.192. Granting by weight alone, ties by name, it read 0.374 and kept
    // climbing with the run's length: 0.269 at 1000 hops, 0.397 at 2500.
    assert!(share < 0.28, "remote share {share:.3}");
}
