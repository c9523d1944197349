//! End-to-end tests of the threaded PREMA runtime: real threads, real
//! migration, explicit vs implicit modes, and the preemptive polling thread.

use bytes::Bytes;
use prema::dcs::{
    Clock, Envelope, LocalEndpoint, LocalFabric, ReliableTransport, Tag, Transport, UdpTransport,
    WIRE_SLICE,
};
use prema::mol::proto::{
    frame_records, DirLookup, H_MOL_DIR_ANSWER, H_MOL_DIR_LOOKUP, H_MOL_MSG, H_NODE_MSG,
};
use prema::{
    launch, launch_single_rank, Completion, LbMode, Migratable, MobilePtr, PolicyKind, PremaConfig,
};
use std::time::Duration;

struct Cell {
    id: u64,
    hits: u64,
}

impl Migratable for Cell {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.hits.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Cell {
            id: u64::from_le_bytes(b[..8].try_into().unwrap()),
            hits: u64::from_le_bytes(b[8..16].try_into().unwrap()),
        }
    }
}

const H_HIT: u32 = 1;

fn run_config(cfg: PremaConfig, objects: usize, hits: u64) -> Vec<(u64, u64)> {
    let total = (objects as u64) * hits;
    launch::<Cell, (u64, u64), _>(cfg, move |rt| {
        rt.on_message(H_HIT, |_ctx, cell, _item| {
            // A real spin so units take ~0.2 ms: long enough that worker
            // threads overlap and stealing can act, short enough for tests.
            let mut x = cell.hits;
            for i in 0..200_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            cell.hits += 1;
        });
        let completion = Completion::install(&rt, total);
        if rt.rank() == 0 {
            let ptrs: Vec<_> = (0..objects)
                .map(|i| {
                    rt.register(Cell {
                        id: i as u64,
                        hits: 0,
                    })
                })
                .collect();
            for _ in 0..hits {
                for &p in &ptrs {
                    rt.message(p, H_HIT, Bytes::new());
                }
            }
        }
        let mut executed = 0u64;
        loop {
            if rt.step() {
                executed += 1;
                completion.report(&rt, 1);
            } else {
                rt.poll();
                if completion.is_done() {
                    break;
                }
                // Back off while idle so busy ranks keep their locks hot.
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        (executed, rt.mol_stats().migrations_in)
    })
}

#[test]
fn implicit_mode_completes_and_spreads() {
    let results = run_config(PremaConfig::implicit(4), 12, 8);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 96);
    let ranks_with_work = results.iter().filter(|r| r.0 > 0).count();
    assert!(ranks_with_work >= 2, "no spreading: {results:?}");
}

#[test]
fn explicit_mode_completes() {
    let results = run_config(PremaConfig::explicit(4), 12, 6);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 72);
}

#[test]
fn disabled_mode_keeps_work_on_rank_zero() {
    let results = run_config(PremaConfig::disabled(3), 6, 5);
    assert_eq!(
        results[0].0, 30,
        "rank 0 should execute everything: {results:?}"
    );
    assert_eq!(results[1].0 + results[2].0, 0);
    // And nothing migrated.
    assert!(results.iter().all(|r| r.1 == 0));
}

#[test]
fn diffusion_policy_completes() {
    let cfg = PremaConfig {
        policy: PolicyKind::Diffusion { threshold: 0.5 },
        ..PremaConfig::implicit(4)
    };
    let results = run_config(cfg, 16, 4);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 64);
}

#[test]
fn multilist_policy_completes() {
    let cfg = PremaConfig {
        policy: PolicyKind::Multilist { low_units: 1 },
        ..PremaConfig::implicit(4)
    };
    let results = run_config(cfg, 16, 4);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 64);
}

#[test]
fn fast_polling_thread_does_not_break_handlers() {
    // An aggressive 100 µs polling interval maximizes preemptive activity
    // racing the worker; every unit must still execute exactly once.
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: Duration::from_micros(100),
        },
        ..PremaConfig::implicit(4)
    };
    let results = run_config(cfg, 10, 10);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 100);
}

#[test]
fn launch_returns_without_sleeping_out_the_polling_interval() {
    // The polling thread starts at the unit and is woken at stop: `launch`
    // must not wait for its 10 s interval to run out.
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: Duration::from_secs(10),
        },
        ..PremaConfig::implicit(1)
    };
    let t0 = std::time::Instant::now();
    let results = run_config(cfg, 1, 1);
    let took = t0.elapsed();
    assert_eq!(results[0].0, 1);
    assert!(took < Duration::from_secs(1), "launch took {took:?}");
}

#[test]
fn object_state_survives_migration_exactly() {
    // Each object's hit count must equal the number of messages sent to it,
    // no matter how often it migrated.
    let total_hits = 9u64;
    let objects = 8usize;
    let results = launch::<Cell, Vec<(u64, u64)>, _>(PremaConfig::implicit(4), move |rt| {
        rt.on_message(H_HIT, |_ctx, cell, _item| {
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
            cell.hits += 1;
        });
        let completion = Completion::install(&rt, (objects as u64) * total_hits);
        if rt.rank() == 0 {
            let ptrs: Vec<_> = (0..objects)
                .map(|i| {
                    rt.register(Cell {
                        id: i as u64,
                        hits: 0,
                    })
                })
                .collect();
            for _ in 0..total_hits {
                for &p in &ptrs {
                    rt.message(p, H_HIT, Bytes::new());
                }
            }
        }
        loop {
            if rt.step() {
                rt.with_scheduler(|_| {}); // touch the lock path
                completion.report(&rt, 1);
            } else {
                rt.poll();
                if completion.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        // Collect the final (id, hits) of every object resident here.
        rt.with_scheduler(|s| {
            s.node()
                .local_ptrs()
                .into_iter()
                .filter_map(|p| s.node().get(p).map(|c| (c.id, c.hits)))
                .collect()
        })
    });
    let mut all: Vec<(u64, u64)> = results.into_iter().flatten().collect();
    all.sort();
    assert_eq!(all.len(), objects, "objects lost or duplicated: {all:?}");
    for (id, hits) in all {
        assert_eq!(hits, total_hits, "object {id} has {hits} hits");
    }
}

#[test]
fn single_rank_machine_works() {
    let results = run_config(PremaConfig::implicit(1), 4, 3);
    assert_eq!(results[0].0, 12);
}

#[test]
fn phase_barrier_separates_async_and_synchronous_phases() {
    use prema::PhaseBarrier;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // Phase 1: asynchronous, imbalanced work with implicit balancing.
    // Barrier. Phase 2: every rank checks that ALL phase-1 work (everyone's)
    // finished before any phase-2 step began — the §6 "end-to-end" contract.
    let phase1_done = Arc::new(AtomicU64::new(0));
    let phase1_total = 24u64;
    let p1 = phase1_done.clone();

    let results = launch::<Cell, u64, _>(PremaConfig::implicit(4), move |rt| {
        let p1_handler = p1.clone();
        rt.on_message(H_HIT, move |_ctx, cell, _item| {
            let mut x = 0u64;
            for i in 0..150_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            cell.hits += 1;
            p1_handler.fetch_add(1, Ordering::SeqCst);
        });
        let completion = Completion::install(&rt, phase1_total);
        let mut barrier = PhaseBarrier::install(&rt);
        if rt.rank() == 0 {
            for i in 0..phase1_total {
                let ptr = rt.register(Cell { id: i, hits: 0 });
                rt.message(ptr, H_HIT, Bytes::new());
            }
        }
        // Asynchronous phase: run until the machine-wide count is in.
        loop {
            if rt.step() {
                completion.report(&rt, 1);
            } else {
                rt.poll();
                if completion.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        // Phase boundary.
        barrier.wait(&rt);
        // Loosely synchronous phase: the global phase-1 count must be final.
        let seen = p1.load(Ordering::SeqCst);
        assert_eq!(seen, phase1_total, "phase 2 started before phase 1 ended");
        // Cross a second barrier to prove reusability.
        barrier.wait(&rt);
        seen
    });
    assert!(results.iter().all(|&r| r == phase1_total));
    assert_eq!(phase1_done.load(Ordering::SeqCst), phase1_total);
}

#[test]
fn gradient_policy_completes() {
    let cfg = PremaConfig {
        policy: prema::PolicyKind::Gradient {
            low_weight: 1.0,
            high_weight: 3.0,
        },
        ..PremaConfig::implicit(4)
    };
    let results = run_config(cfg, 16, 4);
    let total: u64 = results.iter().map(|r| r.0).sum();
    assert_eq!(total, 64);
}

#[test]
fn explicit_application_migration() {
    // An application that places objects by hand (LB disabled): everything
    // must land where directed and execute there.
    let results = launch::<Cell, u64, _>(PremaConfig::disabled(3), |rt| {
        rt.on_message(H_HIT, |_ctx, cell, _item| cell.hits += 1);
        let completion = Completion::install(&rt, 6);
        if rt.rank() == 0 {
            let ptrs: Vec<_> = (0..6)
                .map(|i| rt.register(Cell { id: i, hits: 0 }))
                .collect();
            // Hand-place: object i on rank i % 3.
            for (i, &p) in ptrs.iter().enumerate() {
                let dst = i % 3;
                if dst != 0 {
                    assert!(rt.migrate(p, dst), "manual migrate failed");
                }
                rt.message(p, H_HIT, Bytes::new());
            }
        }
        let mut executed = 0;
        loop {
            if rt.step() {
                executed += 1;
                completion.report(&rt, 1);
            } else {
                rt.poll();
                if completion.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        executed
    });
    assert_eq!(results, vec![2, 2, 2], "manual placement not honored");
}

/// Rank 0 of a two-rank machine on `LocalFabric`, run on this thread in
/// explicit mode, so nothing polls but its own `step` and `poll`. Rank 1 is
/// a bare endpoint the test reads with `try_recv`.
fn rank_zero_of_two<R>(main: impl FnOnce(prema::Runtime<Cell>, &LocalEndpoint) -> R) -> R {
    let mut eps = LocalFabric::new(2);
    let peer = eps.pop().expect("two endpoints");
    let ep0 = eps.pop().expect("two endpoints");
    launch_single_rank(PremaConfig::explicit(2), 0, Box::new(ep0), None, |rt| {
        main(rt, &peer)
    })
}

/// What has reached `peer` since it last looked.
fn arrived(peer: &LocalEndpoint) -> Vec<Envelope> {
    std::iter::from_fn(|| peer.try_recv()).collect()
}

#[test]
fn a_rank_whose_queue_runs_dry_begs_on_the_very_next_step() {
    rank_zero_of_two(|rt, peer| {
        rt.on_message(H_HIT, |_ctx, cell, _item| cell.hits += 1);
        let ptr = rt.register(Cell { id: 0, hits: 0 });
        // Weight 2 a unit: over the water-mark (1.0) until nothing is left.
        for _ in 0..8 {
            rt.message_with_hint(ptr, H_HIT, 2.0, Bytes::new());
        }
        while !rt.is_idle() {
            assert!(rt.step());
        }
        arrived(peer);
        assert_eq!(rt.sched_stats().requests_sent, 0, "begged with work queued");
        // The unit that emptied the queue weighed nothing at its `finish`;
        // the empty queue makes the next step poll, whatever the time.
        assert!(!rt.step());
        assert_eq!(rt.sched_stats().requests_sent, 1);
        assert!(
            arrived(peer).iter().any(|e| e.tag == Tag::System),
            "the request is not on the peer's wire"
        );
    });
}

/// The records in one `H_MOL_MSG` frame `peer` received, if `env` is one.
fn records(env: &Envelope) -> Option<usize> {
    if env.tag != Tag::App || env.handler != H_MOL_MSG {
        return None;
    }
    let mut n = 0;
    frame_records(env.payload.clone(), |_| n += 1).expect("the frame decodes");
    Some(n)
}

/// The object-message frames that have reached `peer` since it last looked,
/// as their record counts.
fn frames_arrived(peer: &LocalEndpoint) -> Vec<usize> {
    arrived(peer).iter().filter_map(records).collect()
}

#[test]
fn a_units_remote_sends_leave_at_the_next_poll() {
    rank_zero_of_two(|rt, peer| {
        let clock = Clock::manual();
        rt.with_scheduler(|s| s.set_clock(clock.clone()));
        // An object born on rank 1: its messages go straight there.
        let remote = MobilePtr { home: 1, index: 1 };
        rt.on_message(H_HIT, move |ctx, cell, _item| {
            cell.hits += 1;
            ctx.message(remote, H_HIT, Bytes::new());
        });
        let ptr = rt.register(Cell { id: 0, hits: 0 });
        for _ in 0..4 {
            rt.message(ptr, H_HIT, Bytes::new());
        }
        // The first step polls; it and the next two run inside one slice,
        // so their sends wait on rank 0.
        for unit in 1..=3 {
            assert!(rt.step());
            assert_eq!(
                frames_arrived(peer),
                [0; 0],
                "unit {unit}'s send left early"
            );
        }
        // The slice is over: the fourth step polls first, and one envelope
        // carries the three records.
        clock.advance(WIRE_SLICE);
        assert!(rt.step());
        assert_eq!(frames_arrived(peer), [3]);
        // The queue is empty: the step that finds it so polls at once.
        assert!(!rt.step());
        assert_eq!(frames_arrived(peer), [1]);
    });
}

/// In implicit mode a frame staged before a long unit begins leaves at the
/// polling thread's next pass, not after that unit.
#[test]
fn a_frame_staged_before_a_long_unit_leaves_at_the_polling_threads_pass() {
    const H_SEND: u32 = 2;
    const H_LONG: u32 = 3;
    let mut eps = LocalFabric::new(2);
    let peer = std::sync::Arc::new(std::sync::Mutex::new(eps.pop().expect("two endpoints")));
    let ep0 = eps.pop().expect("two endpoints");
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: Duration::from_micros(200),
        },
        ..PremaConfig::implicit(2)
    };
    launch_single_rank(cfg, 0, Box::new(ep0), None, |rt: prema::Runtime<Cell>| {
        // No balancer: a status or request to rank 1 would take the frame
        // along ahead of itself, whoever sent it.
        rt.with_scheduler(|s| {
            s.set_clock(Clock::manual());
            s.set_lb_enabled(false);
        });
        let remote = MobilePtr { home: 1, index: 1 };
        rt.on_message(H_SEND, move |ctx, _cell, _item| {
            ctx.message(remote, H_HIT, Bytes::new());
        });
        let seen = peer.clone();
        rt.on_message(H_LONG, move |_ctx, cell, _item| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while std::time::Instant::now() < deadline {
                let got = std::iter::from_fn(|| seen.lock().unwrap().try_recv())
                    .filter_map(|e| records(&e))
                    .sum::<usize>();
                if got > 0 {
                    cell.hits = got as u64;
                    return;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let ptr = rt.register(Cell { id: 0, hits: 0 });
        rt.message(ptr, H_SEND, Bytes::new());
        rt.message(ptr, H_LONG, Bytes::new());
        // The first step polls, then stages the send; the clock stands
        // still, so the second step begins the long unit without a poll.
        assert!(rt.step());
        assert!(rt.step());
        let hits = rt.with_scheduler(|s| s.node().get(ptr).map(|c| c.hits));
        assert_eq!(hits, Some(1), "the frame waited for the long unit to end");
    });
}

/// Ranks 0 and 1 of a two-rank machine, each a `ReliableTransport` over a
/// `UdpTransport` on loopback, joined by the handshake; rank 0's wire slice
/// runs on `clock`.
fn reliable_udp_pair(clock: Clock) -> (Box<dyn Transport>, ReliableTransport<UdpTransport>) {
    let any = "127.0.0.1:0".parse().expect("literal address");
    let b0 = UdpTransport::bind(any).expect("bind rank 0");
    let b1 = UdpTransport::bind(any).expect("bind rank 1");
    let addrs = vec![b0.local_addr(), b1.local_addr()];
    let addrs1 = addrs.clone();
    let join = Duration::from_secs(5);
    let h = std::thread::spawn(move || b1.connect(1, addrs1, 41, join).expect("rank 1 join"));
    let t0 = b0
        .connect_with_clock(0, addrs, 41, join, clock)
        .expect("rank 0 join");
    let t1 = h.join().expect("rank 1 thread");
    (
        Box::new(ReliableTransport::new(t0)),
        ReliableTransport::new(t1),
    )
}

/// Over the reliable UDP wire, a System reply sent by a polling-thread pass
/// reaches its peer while the application thread sits in a long handler,
/// with no later receive call on rank 0: the pass flushes what it sent
/// before it releases the lock. Rank 1 asks rank 0's directory where an
/// object lives once rank 0 is inside the handler. Rank 0's wire slice
/// runs on a hand-stepped clock that the handler moves one slice on, so
/// rank 0's socket is read once more, by the polling thread's next pass,
/// and then never serviced again: the reply can leave only by a flush.
#[test]
fn a_polling_pass_reply_leaves_while_the_application_thread_runs_a_long_handler() {
    const H_LONG: u32 = 2;
    let wire_clock = Clock::manual();
    let (t0, t1) = reliable_udp_pair(wire_clock.clone());
    let peer = std::sync::Arc::new(std::sync::Mutex::new(t1));
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: Duration::from_millis(5),
        },
        ..PremaConfig::implicit(2)
    };
    let answered = launch_single_rank(cfg, 0, t0, None, |rt: prema::Runtime<Cell>| {
        rt.with_scheduler(|s| s.set_lb_enabled(false));
        let ptr = rt.register(Cell { id: 0, hits: 0 });
        rt.on_message(H_LONG, move |_ctx, cell, _item| {
            let t1 = peer.lock().unwrap();
            t1.send(Envelope {
                src: 1,
                dst: 0,
                handler: H_MOL_DIR_LOOKUP,
                tag: Tag::System,
                payload: DirLookup { ptr, epoch: 0 }.encode(),
            });
            t1.flush();
            wire_clock.advance(WIRE_SLICE);
            let asked = std::time::Instant::now();
            while asked.elapsed() < Duration::from_secs(2) {
                let reply = t1.recv_timeout(Duration::from_millis(5));
                if reply.is_some_and(|e| e.handler == H_MOL_DIR_ANSWER) {
                    cell.hits = 1;
                    return;
                }
            }
        });
        rt.message(ptr, H_LONG, Bytes::new());
        assert!(rt.step());
        rt.with_scheduler(|s| s.node().get(ptr).map(|c| c.hits))
    });
    assert_eq!(answered, Some(1), "the reply never left rank 0");
}

/// The next envelope `peer` receives within two seconds, if any.
fn next_arrival(peer: &impl Transport) -> Option<Envelope> {
    let asked = std::time::Instant::now();
    while asked.elapsed() < Duration::from_secs(2) {
        if let Some(env) = peer.recv_timeout(Duration::from_millis(5)) {
            return Some(env);
        }
    }
    None
}

/// Over the reliable UDP wire, what `Runtime::node_message` and
/// `Runtime::message_with_hint` send reaches the peer with no later call on
/// the sender: each releases the scheduler lock through the flush. Rank 0's
/// wire slice runs on a hand-stepped clock that never moves, so its socket
/// is never serviced and a record left in an open datagram would stay
/// there.
#[test]
fn a_node_message_and_a_hinted_message_leave_with_no_later_call() {
    const H_NODE: u32 = 7;
    const H_OBJ: u32 = 1;
    let (t0, t1) = reliable_udp_pair(Clock::manual());
    let remote = MobilePtr { home: 1, index: 1 };
    let arrived = launch_single_rank(
        PremaConfig::explicit(2),
        0,
        t0,
        None,
        move |rt: prema::Runtime<Cell>| {
            rt.node_message(1, H_NODE, Bytes::from_static(b"node"));
            let node = next_arrival(&t1).map(|e| e.handler);
            rt.message_with_hint(remote, H_OBJ, 2.0, Bytes::from_static(b"obj"));
            let frame = next_arrival(&t1).and_then(|e| records(&e));
            (node, frame)
        },
    );
    assert_eq!(arrived.0, Some(H_NODE_MSG), "the node message never left");
    assert_eq!(arrived.1, Some(1), "the hinted message never left");
}
