//! A fault-injecting transport decorator.
//!
//! The paper's PREMA inherited LAM/MPI's reliable FIFO wire, and every
//! protocol above our [`LocalFabric`](crate::LocalFabric) — MOL forwarding
//! epochs, ILB begging, termination detection — silently assumes the same.
//! [`ChaosTransport`] breaks that assumption on purpose: wrapping any
//! [`Transport`], it drops, duplicates, reorders, and delays envelopes and
//! can partition rank pairs, all **deterministically from a seed**, so a
//! protocol bug shaken out by chaos reproduces on every run.
//!
//! # Determinism
//!
//! Each envelope's fate is a pure function of `(seed, src, dst, k)` where
//! `k` is the count of envelopes this receiver has ingested from `src` so
//! far. The underlying fabric guarantees per-pair FIFO structurally, so `k`
//! is the same on every run regardless of thread interleaving — no RNG
//! state, no ordering sensitivity. Delays are measured in *logical ticks*
//! (receive polls), not wall time, for the same reason.
//!
//! # Layering
//!
//! Chaos applies on the **receive** side: envelopes are pulled off the inner
//! transport and then dropped/duplicated/held. Pair this with
//! [`ReliableTransport`](crate::ReliableTransport) stacked *above* it to
//! exercise the recovery path end to end:
//!
//! ```text
//! Communicator → ReliableTransport → ChaosTransport → LocalEndpoint
//! ```

use crate::envelope::{Envelope, Rank};
use crate::transport::Transport;
use parking_lot::Mutex;
use prema_trace::{TraceEvent, Tracer};
use std::cell::RefCell;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Injection rates and the seed they key off. All probabilities are in
/// `[0, 1]` and mutually exclusive per envelope (a message is dropped *or*
/// duplicated *or* deferred, never several at once).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the deterministic fate function.
    pub seed: u64,
    /// Probability an envelope is silently dropped.
    pub drop_p: f64,
    /// Probability an envelope is delivered twice.
    pub dup_p: f64,
    /// Probability an envelope is deferred one tick so a later message from
    /// any source can overtake it.
    pub reorder_p: f64,
    /// Probability an envelope is deferred [`ChaosConfig::delay_ticks`]
    /// receive polls.
    pub delay_p: f64,
    /// Logical-tick duration of an injected delay.
    pub delay_ticks: u32,
}

impl ChaosConfig {
    /// A quiet configuration: deterministic plumbing in place, zero injected
    /// faults. Useful as a baseline and for overhead measurement.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            delay_p: 0.0,
            delay_ticks: 0,
        }
    }

    /// The standard adversarial mix used by the soak tests: `loss` of drop
    /// plus half as much duplication, reordering, and delay.
    pub fn adversarial(seed: u64, loss: f64) -> Self {
        ChaosConfig {
            seed,
            drop_p: loss,
            dup_p: loss / 2.0,
            reorder_p: loss / 2.0,
            delay_p: loss / 2.0,
            delay_ticks: 3,
        }
    }

    /// Read the chaos knobs from the environment: `None` unless
    /// `PREMA_CHAOS_SEED` (the fate seed) is set, else
    /// [`ChaosConfig::adversarial`] at `PREMA_CHAOS_LOSS` (default `0.01`).
    /// This is how `prema-launch` hands `--seed` / `--loss` to its worker
    /// processes. Both knobs are validated via [`crate::env`]: malformed
    /// values warn once and read as unset, and the loss is range-checked to
    /// `[0, 1]`.
    pub fn from_env() -> Option<Self> {
        let seed = crate::env::u64_var("PREMA_CHAOS_SEED")?;
        let loss = crate::env::prob_var("PREMA_CHAOS_LOSS").unwrap_or(0.01);
        Some(Self::adversarial(seed, loss))
    }
}

/// Aggregated fault counters, snapshot via [`ChaosHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Envelopes dropped by the loss dice.
    pub dropped: u64,
    /// Envelopes delivered twice.
    pub duplicated: u64,
    /// Envelopes deferred by the reorder dice.
    pub reordered: u64,
    /// Envelopes deferred by the delay dice.
    pub delayed: u64,
    /// Envelopes dropped because their rank pair was partitioned.
    pub partitioned: u64,
}

#[derive(Default)]
struct Counters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    partitioned: AtomicU64,
}

/// Shared control surface for a set of [`ChaosTransport`]s: partition and
/// heal rank pairs at runtime and read the aggregated fault counters. Clone
/// freely; all clones control the same machine.
#[derive(Clone, Default)]
pub struct ChaosHandle {
    partitions: Arc<Mutex<HashSet<(Rank, Rank)>>>,
    counters: Arc<Counters>,
}

impl ChaosHandle {
    /// Fresh handle with no partitions and zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sever the pair `(a, b)`: every envelope between them (both
    /// directions) is dropped until [`ChaosHandle::heal`].
    pub fn partition(&self, a: Rank, b: Rank) {
        self.partitions.lock().insert(Self::key(a, b));
    }

    /// Restore the pair `(a, b)`.
    pub fn heal(&self, a: Rank, b: Rank) {
        self.partitions.lock().remove(&Self::key(a, b));
    }

    /// Restore every partitioned pair.
    pub fn heal_all(&self) {
        self.partitions.lock().clear();
    }

    /// Whether the pair `(a, b)` is currently severed.
    pub fn is_partitioned(&self, a: Rank, b: Rank) -> bool {
        self.partitions.lock().contains(&Self::key(a, b))
    }

    /// Snapshot the aggregated fault counters across all transports sharing
    /// this handle.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            dropped: self.counters.dropped.load(Ordering::SeqCst),
            duplicated: self.counters.duplicated.load(Ordering::SeqCst),
            reordered: self.counters.reordered.load(Ordering::SeqCst),
            delayed: self.counters.delayed.load(Ordering::SeqCst),
            partitioned: self.counters.partitioned.load(Ordering::SeqCst),
        }
    }

    fn key(a: Rank, b: Rank) -> (Rank, Rank) {
        (a.min(b), a.max(b))
    }
}

/// What the fate dice decided for one envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    Reorder,
    Delay,
}

/// A deferred envelope waiting in the maturity heap. Ordered by
/// `(mature_at, seq)` *reversed*, so the std max-heap pops the entry with
/// the **smallest** maturity tick first; `seq` breaks ties in deferral
/// order, preserving FIFO among envelopes that mature on the same tick.
struct Held {
    /// Absolute logical tick at which this envelope is released.
    mature_at: u64,
    /// Deferral sequence number (tie-break).
    seq: u64,
    env: Envelope,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.mature_at == other.mature_at && self.seq == other.seq
    }
}

impl Eq for Held {}

impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: smallest (mature_at, seq) has the greatest heap priority.
        (other.mature_at, other.seq).cmp(&(self.mature_at, self.seq))
    }
}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Receiver-side mutable state (the transport is used from one thread at a
/// time, like every other decorator in this crate).
struct ChaosState {
    /// Envelopes cleared for delivery, in order.
    ready: VecDeque<Envelope>,
    /// Deferred envelopes keyed by absolute maturity tick: releasing the
    /// matured prefix is O(matured · log held) heap pops instead of the
    /// former O(held) scan-and-remove per poll, which went quadratic when a
    /// burst held many messages at once.
    held: BinaryHeap<Held>,
    /// Current logical tick (advances once per receive poll).
    now_tick: u64,
    /// Next deferral sequence number (the FIFO tie-break in [`Held`]).
    held_seq: u64,
    /// Per-source ingest counts: the `k` of the fate function.
    ingested: Vec<u64>,
}

impl ChaosState {
    /// Defer `env` for `ticks` logical ticks from now.
    fn hold(&mut self, ticks: u32, env: Envelope) {
        let seq = self.held_seq;
        self.held_seq += 1;
        self.held.push(Held {
            mature_at: self.now_tick + u64::from(ticks),
            seq,
            env,
        });
    }
}

/// The fault-injecting decorator. See the module docs for the model.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    cfg: ChaosConfig,
    handle: ChaosHandle,
    state: RefCell<ChaosState>,
    tracer: Tracer,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer, used here to turn
/// `(seed, src, dst, k)` into independent uniform dice with no carried state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a mixed word onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner`, injecting faults per `cfg`, controlled/observed through
    /// `handle` (share one handle across all ranks of a machine).
    pub fn new(inner: T, cfg: ChaosConfig, handle: ChaosHandle) -> Self {
        let n = inner.nprocs();
        ChaosTransport {
            inner,
            cfg,
            handle,
            state: RefCell::new(ChaosState {
                ready: VecDeque::new(),
                held: BinaryHeap::new(),
                now_tick: 0,
                held_seq: 0,
                ingested: vec![0; n],
            }),
            tracer: Tracer::off(),
        }
    }

    /// Attach a tracer so injected faults show up in the event stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The control handle shared by this transport.
    pub fn handle(&self) -> ChaosHandle {
        self.handle.clone()
    }

    /// Roll the fate dice for ingest index `k` from `src`. Pure function of
    /// the identifying tuple: stable across runs and interleavings.
    fn fate(&self, src: Rank, k: u64) -> Fate {
        let id = self
            .cfg
            .seed
            .wrapping_add(mix(src as u64 ^ ((self.inner.rank() as u64) << 20)))
            .wrapping_add(k.wrapping_mul(0xA24B_AED4_963E_E407));
        let u = unit(mix(id));
        let c = &self.cfg;
        let mut edge = c.drop_p;
        if u < edge {
            return Fate::Drop;
        }
        edge += c.dup_p;
        if u < edge {
            return Fate::Duplicate;
        }
        edge += c.reorder_p;
        if u < edge {
            return Fate::Reorder;
        }
        edge += c.delay_p;
        if u < edge {
            return Fate::Delay;
        }
        Fate::Deliver
    }

    /// Advance one logical tick and release the matured prefix of the heap
    /// to the ready queue — earliest maturity first, deferral order among
    /// ties.
    fn tick(&self, state: &mut ChaosState) {
        state.now_tick += 1;
        while state
            .held
            .peek()
            .is_some_and(|h| h.mature_at <= state.now_tick)
        {
            if let Some(h) = state.held.pop() {
                state.ready.push_back(h.env);
            }
        }
    }

    /// Pull one envelope off the inner transport and apply its fate.
    fn admit(&self, state: &mut ChaosState, env: Envelope) {
        let src = env.src;
        let k = state.ingested[src];
        state.ingested[src] += 1;
        if self.handle.is_partitioned(src, self.inner.rank()) {
            self.handle
                .counters
                .partitioned
                .fetch_add(1, Ordering::SeqCst);
            let handler = env.handler.0;
            self.tracer
                .emit(|| TraceEvent::DcsDropped { peer: src, handler });
            return;
        }
        match self.fate(src, k) {
            Fate::Deliver => state.ready.push_back(env),
            Fate::Drop => {
                self.handle.counters.dropped.fetch_add(1, Ordering::SeqCst);
                let handler = env.handler.0;
                self.tracer
                    .emit(|| TraceEvent::DcsDropped { peer: src, handler });
            }
            Fate::Duplicate => {
                self.handle
                    .counters
                    .duplicated
                    .fetch_add(1, Ordering::SeqCst);
                let handler = env.handler.0;
                self.tracer
                    .emit(|| TraceEvent::DcsDuplicate { peer: src, handler });
                state.ready.push_back(env.clone());
                state.ready.push_back(env);
            }
            Fate::Reorder => {
                // Defer one tick: anything admitted before the next tick
                // overtakes this envelope.
                self.handle
                    .counters
                    .reordered
                    .fetch_add(1, Ordering::SeqCst);
                state.hold(1, env);
            }
            Fate::Delay => {
                self.handle.counters.delayed.fetch_add(1, Ordering::SeqCst);
                state.hold(self.cfg.delay_ticks.max(1), env);
            }
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send(&self, env: Envelope) {
        // Faults are injected receiver-side only; the send path stays the
        // inner transport's untouched fast path.
        self.inner.send(env);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    /// One logical tick per call; the inner transport is drained only when
    /// nothing is ready here, so a burst of K costs K + 2 inner receives,
    /// not 2K.
    fn try_recv(&self) -> Option<Envelope> {
        let mut state = self.state.borrow_mut();
        self.tick(&mut state);
        if state.ready.is_empty() {
            while let Some(env) = self.inner.try_recv() {
                self.admit(&mut state, env);
            }
        }
        state.ready.pop_front()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let deadline = crate::transport::saturating_deadline(timeout);
        loop {
            if let Some(env) = self.try_recv() {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // If envelopes are deferred, wake every slice so logical ticks
            // keep advancing even with no fresh arrivals; otherwise block on
            // the inner transport until something arrives.
            let held = !self.state.borrow().held.is_empty();
            let wait = if held {
                (deadline - now).min(Duration::from_micros(500))
            } else {
                deadline - now
            };
            if let Some(env) = self.inner.recv_timeout(wait) {
                let mut state = self.state.borrow_mut();
                self.admit(&mut state, env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{HandlerId, Tag};
    use crate::reliable::tests::Counted;
    use crate::transport::LocalFabric;
    use bytes::Bytes;

    fn env(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            src,
            dst,
            handler: HandlerId(n),
            tag: Tag::App,
            payload: Bytes::new(),
        }
    }

    /// Run `count` messages through a 2-rank chaos wire and return the
    /// handler ids that came out, in order.
    fn run_once(cfg: ChaosConfig, count: u32) -> (Vec<u32>, ChaosStats) {
        let mut eps = LocalFabric::new(2);
        let handle = ChaosHandle::new();
        let b = ChaosTransport::new(eps.pop().unwrap(), cfg, handle.clone());
        let a = eps.pop().unwrap();
        for i in 0..count {
            a.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        // Extra polls drain deferred envelopes.
        for _ in 0..(count + 64) {
            if let Some(e) = b.try_recv() {
                got.push(e.handler.0);
            }
        }
        (got, handle.stats())
    }

    /// A burst of K is drained from the inner transport once, by the
    /// receive that finds nothing ready, and once more by the receive that
    /// ends it: K + 2 inner receives in all, K of them delivering.
    #[test]
    fn a_burst_drains_the_inner_transport_only_when_nothing_is_ready() {
        const K: u32 = 8;
        let mut eps = LocalFabric::new(2);
        let inner = Counted(eps.pop().unwrap(), std::cell::Cell::new(0));
        let b = ChaosTransport::new(inner, ChaosConfig::quiet(1), ChaosHandle::new());
        let a = eps.pop().unwrap();
        for i in 0..K {
            a.send(env(0, 1, i));
        }
        let got: Vec<u32> = std::iter::from_fn(|| b.try_recv())
            .map(|e| e.handler.0)
            .collect();
        assert_eq!(got, (0..K).collect::<Vec<_>>());
        assert_eq!(b.inner.1.get(), K + 2);
    }

    #[test]
    fn quiet_config_is_transparent() {
        let (got, stats) = run_once(ChaosConfig::quiet(7), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(stats, ChaosStats::default());
    }

    #[test]
    fn fates_are_deterministic_across_runs() {
        let cfg = ChaosConfig::adversarial(0xC0FFEE, 0.10);
        let (got1, stats1) = run_once(cfg, 500);
        let (got2, stats2) = run_once(cfg, 500);
        let (got3, stats3) = run_once(cfg, 500);
        assert_eq!(got1, got2);
        assert_eq!(got2, got3);
        assert_eq!(stats1, stats2);
        assert_eq!(stats2, stats3);
        // And the dice actually fired at 10% loss over 500 messages.
        assert!(stats1.dropped > 0, "{stats1:?}");
        assert!(stats1.duplicated > 0, "{stats1:?}");
    }

    #[test]
    fn different_seeds_give_different_fates() {
        let (got1, _) = run_once(ChaosConfig::adversarial(1, 0.20), 300);
        let (got2, _) = run_once(ChaosConfig::adversarial(2, 0.20), 300);
        assert_ne!(got1, got2);
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut cfg = ChaosConfig::quiet(42);
        cfg.drop_p = 0.05;
        let (got, stats) = run_once(cfg, 2000);
        let lost = 2000 - got.len() as u64;
        assert_eq!(lost, stats.dropped);
        // 5% of 2000 = 100 expected; allow generous slack.
        assert!((40..=180).contains(&lost), "lost {lost}");
    }

    #[test]
    fn duplicates_are_delivered_back_to_back() {
        let mut cfg = ChaosConfig::quiet(9);
        cfg.dup_p = 1.0;
        let (got, stats) = run_once(cfg, 5);
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        assert_eq!(stats.duplicated, 5);
    }

    #[test]
    fn delay_defers_by_logical_ticks() {
        let mut cfg = ChaosConfig::quiet(3);
        cfg.delay_p = 1.0;
        cfg.delay_ticks = 4;
        let mut eps = LocalFabric::new(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), cfg, ChaosHandle::new());
        let a = eps.pop().unwrap();
        a.send(env(0, 1, 7));
        // First poll ingests + defers; three more age it; the next delivers.
        for _ in 0..4 {
            assert!(b.try_recv().is_none());
        }
        assert_eq!(b.try_recv().map(|e| e.handler.0), Some(7));
    }

    #[test]
    fn many_delayed_messages_mature_together_in_deferral_order() {
        // A burst that defers hundreds of envelopes at once is exactly the
        // shape that made the old linear scan quadratic; the heap must both
        // stay cheap and release the whole cohort in deferral (FIFO) order.
        let mut cfg = ChaosConfig::quiet(5);
        cfg.delay_p = 1.0;
        cfg.delay_ticks = 3;
        let mut eps = LocalFabric::new(2);
        let handle = ChaosHandle::new();
        let b = ChaosTransport::new(eps.pop().unwrap(), cfg, handle.clone());
        let a = eps.pop().unwrap();
        for i in 0..500 {
            a.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        for _ in 0..1200 {
            if let Some(e) = b.try_recv() {
                got.push(e.handler.0);
            }
        }
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        assert_eq!(handle.stats().delayed, 500);
    }

    #[test]
    fn later_reorder_overtakes_earlier_long_delay() {
        // Message 0 rolls Delay (matures at now+4), message 1 rolls Reorder
        // (matures at now+1): the maturity heap must deliver 1 before 0 even
        // though 0 was deferred first. Scan seeds for that fate pair — the
        // fate function is deterministic, so the found seed reproduces the
        // inversion on every run.
        let mut found = false;
        for seed in 0..256u64 {
            let mut cfg = ChaosConfig::quiet(seed);
            cfg.delay_p = 0.5;
            cfg.reorder_p = 0.5;
            cfg.delay_ticks = 4;
            let (got, stats) = run_once(cfg, 2);
            if got == vec![1, 0] && stats.delayed == 1 && stats.reordered == 1 {
                found = true;
                break;
            }
        }
        assert!(found, "no seed in 0..256 produced delay-then-reorder");
    }

    #[test]
    fn partition_severs_and_heal_restores() {
        let mut eps = LocalFabric::new(2);
        let handle = ChaosHandle::new();
        let b = ChaosTransport::new(eps.pop().unwrap(), ChaosConfig::quiet(1), handle.clone());
        let a = eps.pop().unwrap();
        handle.partition(0, 1);
        a.send(env(0, 1, 1));
        for _ in 0..8 {
            assert!(b.try_recv().is_none());
        }
        assert_eq!(handle.stats().partitioned, 1);
        handle.heal(0, 1);
        a.send(env(0, 1, 2));
        assert_eq!(b.try_recv().map(|e| e.handler.0), Some(2));
    }

    #[test]
    fn reorder_lets_later_message_overtake() {
        // An overtake needs the dice to defer message 0 but deliver message
        // 1 in the same poll window. The fate function is deterministic per
        // seed, so scan a few seeds until one produces the inversion — that
        // seed then reproduces it forever.
        let mut inverted = false;
        for seed in 0..64u64 {
            let mut cfg = ChaosConfig::quiet(seed);
            cfg.reorder_p = 0.5;
            let (got, _) = run_once(cfg, 2);
            if got == vec![1, 0] {
                inverted = true;
                break;
            }
        }
        assert!(inverted, "no seed in 0..64 produced an overtake");
    }

    #[test]
    fn recv_timeout_delivers_through_chaos() {
        let mut eps = LocalFabric::new(2);
        let b = ChaosTransport::new(
            eps.pop().unwrap(),
            ChaosConfig::quiet(11),
            ChaosHandle::new(),
        );
        let a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a.send(env(0, 1, 9));
        });
        let got = b.recv_timeout(Duration::from_secs(5));
        assert_eq!(got.map(|e| e.handler.0), Some(9));
        h.join().expect("sender thread must not panic");
    }

    #[test]
    fn from_env_requires_seed() {
        // Can't set process env safely in parallel tests; just assert the
        // parse path on the absence default (the variable is not set under
        // `cargo test`).
        if std::env::var("PREMA_CHAOS_SEED").is_err() {
            assert!(ChaosConfig::from_env().is_none());
        }
    }
}
