//! The communicator: a rank's single-sided communication endpoint.
//!
//! [`Communicator`] wraps a [`Transport`] and adds what the Mobile Object
//! Layer and the load balancer need from the substrate:
//!
//! * active-message sends ([`Communicator::am_send`]);
//! * polling receives, with a *sideline queue* so higher layers can defer a
//!   message they are not ready for without losing FIFO order among the rest;
//! * traffic counters (the harness reports message/byte volumes).
//!
//! A `Communicator` belongs to one rank. It is `Send` (so the owning runtime
//! can place it behind a lock shared between the worker and PREMA's preemptive
//! polling thread) but deliberately not `Sync`.

use crate::envelope::{Envelope, HandlerId, Rank, Tag};
use crate::transport::Transport;
use bytes::Bytes;
use prema_trace::{TraceEvent, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::Duration;

/// Cumulative traffic counters for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Envelopes sent.
    pub msgs_sent: u64,
    /// Wire bytes sent: each envelope's 24-byte header plus its payload.
    pub bytes_sent: u64,
    /// Transport-level envelopes sent. Every envelope is its own frame, so
    /// this equals `msgs_sent` by construction.
    pub frames_sent: u64,
    /// Envelopes received (delivered to the caller).
    pub msgs_recvd: u64,
}

/// A rank's endpoint: sends, polls, counters, sideline queue.
pub struct Communicator {
    transport: Box<dyn Transport>,
    sidelined: RefCell<VecDeque<Envelope>>,
    stats: Cell<CommStats>,
    tracer: Tracer,
}

impl Communicator {
    /// Wrap a transport endpoint.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Communicator {
            transport,
            sidelined: RefCell::new(VecDeque::new()),
            stats: Cell::new(CommStats::default()),
            tracer: Tracer::off(),
        }
    }

    /// Attach a trace recorder for this rank's sends and receives.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Machine size.
    pub fn nprocs(&self) -> usize {
        self.transport.nprocs()
    }

    /// Send an active message: `handler` will run at `dst` with `payload`.
    pub fn am_send(&self, dst: Rank, handler: HandlerId, tag: Tag, payload: Bytes) {
        let env = Envelope {
            src: self.rank(),
            dst,
            handler,
            tag,
            payload,
        };
        self.tracer.emit(|| TraceEvent::Send {
            dst,
            handler: handler.0,
            bytes: env.wire_size(),
            system: tag == Tag::System,
        });
        let mut s = self.stats.get();
        s.msgs_sent += 1;
        s.frames_sent += 1;
        s.bytes_sent += env.wire_size() as u64;
        self.stats.set(s);
        self.transport.send(env);
    }

    /// Non-blocking receive. Sidelined messages are returned first (in the
    /// order they were sidelined), then fresh transport messages.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.received(|| {
            let sidelined = self.sidelined.borrow_mut().pop_front();
            sidelined.or_else(|| self.transport.try_recv())
        })
    }

    /// Blocking receive with timeout. Sidelined messages take priority.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.received(|| {
            let sidelined = self.sidelined.borrow_mut().pop_front();
            sidelined.or_else(|| self.transport.recv_timeout(timeout))
        })
    }

    /// Non-blocking receive that bypasses the sideline queue, looking only at
    /// fresh transport traffic. This is what a *system-only* poll uses: it
    /// scans new arrivals (sidelining the application ones) and is guaranteed
    /// to terminate once the transport is drained, whereas [`try_recv`]
    /// would hand back its own sidelined messages forever.
    ///
    /// [`try_recv`]: Communicator::try_recv
    pub fn try_recv_transport(&self) -> Option<Envelope> {
        self.received(|| self.transport.try_recv())
    }

    /// Put everything sent so far on the wire ([`Transport::flush`]).
    pub fn flush(&self) {
        self.transport.flush();
    }

    /// Put a message back for a later receive (front of the queue is the
    /// oldest sidelined message). Does not double-count it in the stats.
    ///
    /// Only envelopes obtained from this communicator's receive methods may
    /// be sidelined: each one was counted on receipt, and that count is
    /// backed out here (it is re-counted when re-received). Sidelining a
    /// never-received envelope is a caller bug — debug builds assert;
    /// release builds saturate rather than wrapping the counter to 2⁶⁴.
    pub fn sideline(&self, env: Envelope) {
        let mut s = self.stats.get();
        debug_assert!(
            s.msgs_recvd > 0,
            "sideline of an envelope that was never counted as received"
        );
        s.msgs_recvd = s.msgs_recvd.saturating_sub(1);
        self.stats.set(s);
        self.sidelined.borrow_mut().push_back(env);
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    /// Receive through `recv`, then count what it returned and trace it.
    /// The tracer is tested before the receive: with a detached one nothing
    /// reads the envelope after it lands, so it is written once, straight
    /// into the caller's slot (`trace_overhead`'s `dcs_send_recv` reads the
    /// same with the emit site deleted).
    #[inline(always)]
    fn received(&self, recv: impl FnOnce() -> Option<Envelope>) -> Option<Envelope> {
        if !self.tracer.is_on() {
            let env = recv();
            if env.is_some() {
                self.count_recv();
            }
            return env;
        }
        let env = recv();
        if let Some(env) = &env {
            self.count_recv();
            self.tracer.emit(|| TraceEvent::Recv {
                src: env.src,
                handler: env.handler.0,
                bytes: env.wire_size(),
                system: env.tag == Tag::System,
            });
        }
        env
    }

    fn count_recv(&self) {
        let mut s = self.stats.get();
        s.msgs_recvd += 1;
        self.stats.set(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalFabric;

    fn pair() -> (Communicator, Communicator) {
        let mut eps = LocalFabric::new(2);
        let b = Communicator::new(Box::new(eps.pop().unwrap()));
        let a = Communicator::new(Box::new(eps.pop().unwrap()));
        (a, b)
    }

    #[test]
    fn am_send_and_receive() {
        let (a, b) = pair();
        a.am_send(1, HandlerId(3), Tag::App, Bytes::from_static(b"hi"));
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.src, 0);
        assert_eq!(env.handler, HandlerId(3));
        assert_eq!(&env.payload[..], b"hi");
        assert_eq!(a.stats().msgs_sent, 1);
        assert_eq!(a.stats().bytes_sent, 24 + 2);
        assert_eq!(b.stats().msgs_recvd, 1);
    }

    #[test]
    fn sideline_preserves_order_and_priority() {
        let (a, b) = pair();
        for i in 0..3u32 {
            a.am_send(1, HandlerId(i), Tag::App, Bytes::new());
        }
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.handler, HandlerId(0));
        b.sideline(first);
        let second = b.try_recv().unwrap();
        // Sidelined message comes back first.
        assert_eq!(second.handler, HandlerId(0));
        assert_eq!(b.try_recv().unwrap().handler, HandlerId(1));
        assert_eq!(b.try_recv().unwrap().handler, HandlerId(2));
        assert!(b.try_recv().is_none());
        // Net received count: 3 unique messages (sideline un-counts).
        assert_eq!(b.stats().msgs_recvd, 3);
    }

    /// A system-only poll (`MolNode::poll_system`) sidelines the application
    /// envelopes it scans, so `try_recv_transport` must *never* hand back a
    /// sidelined message: it would re-receive what it just sidelined and
    /// livelock. Plain receives must still drain the sideline first.
    #[test]
    fn transport_receives_bypass_the_sideline_queue() {
        let (a, b) = pair();
        a.am_send(1, HandlerId(1), Tag::App, Bytes::new());
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.sideline(env);
        // The transport-only receive must not see the sidelined message,
        // even though it is the only one queued anywhere.
        assert!(b.try_recv_transport().is_none());
        // Fresh wire traffic is returned ahead of the sidelined envelope.
        a.am_send(1, HandlerId(2), Tag::App, Bytes::new());
        assert_eq!(b.try_recv_transport().unwrap().handler, HandlerId(2));
        assert!(b.try_recv_transport().is_none());
        // The plain receive finally drains the sideline, oldest first.
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().handler,
            HandlerId(1)
        );
        assert!(b.try_recv().is_none());
        assert_eq!(b.stats().msgs_recvd, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "never counted as received")]
    fn sideline_of_uncounted_envelope_asserts_in_debug() {
        let (a, b) = pair();
        a.am_send(1, HandlerId(1), Tag::App, Bytes::new());
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.sideline(env.clone()); // legitimate: counted once, backed out once
        b.sideline(env); // bug: the count was already backed out
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn sideline_of_uncounted_envelope_saturates_in_release() {
        let (a, b) = pair();
        a.am_send(1, HandlerId(1), Tag::App, Bytes::new());
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.sideline(env.clone());
        b.sideline(env); // must saturate at 0, not wrap to u64::MAX
        assert_eq!(b.stats().msgs_recvd, 0);
    }

    #[test]
    fn self_communication() {
        let mut eps = LocalFabric::new(1);
        let a = Communicator::new(Box::new(eps.pop().unwrap()));
        a.am_send(0, HandlerId(1), Tag::System, Bytes::new());
        assert!(a.try_recv().is_some());
    }
}
