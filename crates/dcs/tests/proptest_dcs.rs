//! Property-based tests for the DCS substrate: the wire codec and per-pair
//! transport FIFO across arbitrary machine sizes, interleavings and payloads.

use prema_dcs::{Communicator, HandlerId, LocalFabric, Tag, Transport, WireReader, WireWriter};
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
enum Field {
    U64(u64),
    U32(u32),
    F64(f64),
    Bytes(Vec<u8>),
}

fn arb_fields() -> impl Strategy<Value = Vec<Field>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(Field::U64),
            any::<u32>().prop_map(Field::U32),
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Field::F64),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Field::Bytes),
        ],
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_roundtrip_arbitrary_field_sequences(fields in arb_fields()) {
        let mut w = WireWriter::new();
        for f in &fields {
            w = match f {
                Field::U64(v) => w.u64(*v),
                Field::U32(v) => w.u32(*v),
                Field::F64(v) => w.f64(*v),
                Field::Bytes(v) => w.bytes(v),
            };
        }
        let mut r = WireReader::new(w.finish());
        for f in &fields {
            match f {
                Field::U64(v) => prop_assert_eq!(r.try_u64(), Some(*v)),
                Field::U32(v) => prop_assert_eq!(r.try_u32(), Some(*v)),
                Field::F64(v) => prop_assert_eq!(r.try_f64(), Some(*v)),
                Field::Bytes(v) => prop_assert_eq!(r.try_bytes().map(|b| b.to_vec()), Some(v.clone())),
            }
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn single_thread_fifo_for_any_send_sequence(
        msgs in proptest::collection::vec((0u32..1000, 0usize..256), 1..50)
    ) {
        let mut eps = LocalFabric::new(2);
        let b = Communicator::new(Box::new(eps.pop().unwrap()));
        let a = Communicator::new(Box::new(eps.pop().unwrap()));
        for (id, size) in &msgs {
            a.am_send(1, HandlerId(*id), Tag::App, bytes::Bytes::from(vec![0u8; *size]));
        }
        for (id, size) in &msgs {
            let env = b.try_recv().expect("message lost");
            prop_assert_eq!(env.handler, HandlerId(*id));
            prop_assert_eq!(env.payload.len(), *size);
        }
        prop_assert!(b.try_recv().is_none());
    }
}

proptest! {
    // Thread spawning per case is comparatively expensive; fewer, fatter
    // cases give better interleaving coverage per second.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ring mesh gives every ordered pair its own SPSC ring (plus an
    /// overflow side channel when the ring fills), so per-pair FIFO rests on
    /// the sender's single-producer push order and the receiver probing the
    /// ring strictly before the overflow queue. Pin that under randomized
    /// multi-sender interleavings: every sender's messages must reach the
    /// receiver in send order (sequence numbers strictly increasing per
    /// sender), none lost, none duplicated. Interleavings vary via
    /// per-sender message counts and yield patterns drawn by proptest.
    #[test]
    fn ring_mesh_preserves_per_pair_fifo(
        counts in proptest::collection::vec(1usize..120, 3..6),
        yield_mask in any::<u64>(),
    ) {
        let senders = counts.len();
        let mut eps = LocalFabric::new(senders + 1);
        let rx = eps.pop().expect("fabric returns one endpoint per rank");
        let dst = senders; // the receiver's rank (last one built)
        let handles: Vec<_> = eps
            .into_iter()
            .zip(&counts)
            .map(|(ep, &count)| {
                std::thread::spawn(move || {
                    for seq in 0..count {
                        ep.send(prema_dcs::Envelope {
                            src: ep.rank(),
                            dst,
                            handler: HandlerId(seq as u32),
                            tag: Tag::App,
                            payload: bytes::Bytes::new(),
                        });
                        // Perturb the interleaving differently per case.
                        if (yield_mask >> (seq % 64)) & 1 == 1 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sender thread panicked");
        }
        let total: usize = counts.iter().sum();
        let mut next_seq = vec![0u32; senders];
        for _ in 0..total {
            let env = rx.try_recv().expect("message lost in ring mesh");
            let src = env.src;
            // Any mismatch here is a per-pair FIFO violation for `src`.
            prop_assert_eq!(env.handler, HandlerId(next_seq[src]));
            next_seq[src] += 1;
        }
        prop_assert!(rx.try_recv().is_none(), "duplicate or phantom message");
        for (&got, &want) in next_seq.iter().zip(&counts) {
            prop_assert_eq!(got as usize, want);
        }
    }

    /// Backpressure companion: with rings shrunk to two slots, almost every
    /// send spills to the overflow side channel while the receiver drains
    /// concurrently — messages bounce between ring and overflow across the
    /// run. Per-pair FIFO and zero loss must survive arbitrarily interleaved
    /// spill episodes, not just the all-in-ring fast path.
    #[test]
    fn ring_overflow_spill_preserves_per_pair_fifo(
        counts in proptest::collection::vec(1usize..120, 3..6),
        yield_mask in any::<u64>(),
    ) {
        let senders = counts.len();
        let mut eps = prema_dcs::LocalFabric::with_capacity(senders + 1, 2);
        let rx = eps.pop().expect("fabric returns one endpoint per rank");
        let dst = senders; // the receiver's rank (last one built)
        let handles: Vec<_> = eps
            .into_iter()
            .zip(&counts)
            .map(|(ep, &count)| {
                std::thread::spawn(move || {
                    for seq in 0..count {
                        ep.send(prema_dcs::Envelope {
                            src: ep.rank(),
                            dst,
                            handler: HandlerId(seq as u32),
                            tag: Tag::App,
                            payload: bytes::Bytes::new(),
                        });
                        if (yield_mask >> (seq % 64)) & 1 == 1 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        // Drain while the senders are still pushing so ring slots free up
        // mid-stream and later sends go back to the ring after a spill.
        let total: usize = counts.iter().sum();
        let mut next_seq = vec![0u32; senders];
        let mut received = 0;
        while received < total {
            if let Some(env) = rx.try_recv() {
                let src = env.src;
                prop_assert_eq!(env.handler, HandlerId(next_seq[src]));
                next_seq[src] += 1;
                received += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().expect("sender thread panicked");
        }
        prop_assert!(rx.try_recv().is_none(), "duplicate or phantom message");
        for (&got, &want) in next_seq.iter().zip(&counts) {
            prop_assert_eq!(got as usize, want);
        }
    }
}
