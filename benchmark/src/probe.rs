//! `TransportProbe`: times the wire from outside, as a `dcs::Transport`
//! decorator handed to `launch_with_transports` in the traced pass.

use crate::clock::now_ns;
use prema::dcs::{Envelope, Rank, Transport};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Counts and nanoseconds of one rank's transport calls. A transport is used
/// by one thread at a time (the runtime holds the rank's scheduler lock around
/// every call), so these are statistics: `Relaxed` publishes nothing else.
#[derive(Default)]
pub struct ProbeStats {
    pub sends: AtomicU64,
    pub send_ns: AtomicU64,
    /// Receives that returned an envelope.
    pub recvs: AtomicU64,
    pub recv_ns: AtomicU64,
    /// Receives that found nothing.
    pub empty_recvs: AtomicU64,
    pub empty_recv_ns: AtomicU64,
}

impl ProbeStats {
    /// All time spent inside the transport so far. Read before and after a
    /// phase by the thread that holds the scheduler lock, the difference is
    /// that phase's child span.
    pub fn busy_ns(&self) -> u64 {
        self.send_ns.load(Relaxed) + self.recv_ns.load(Relaxed) + self.empty_recv_ns.load(Relaxed)
    }
}

pub struct TransportProbe<T: Transport> {
    inner: T,
    stats: Arc<ProbeStats>,
}

impl<T: Transport> TransportProbe<T> {
    pub fn new(inner: T, stats: Arc<ProbeStats>) -> Self {
        TransportProbe { inner, stats }
    }

    fn timed_recv(&self, recv: impl FnOnce(&T) -> Option<Envelope>) -> Option<Envelope> {
        let t0 = now_ns();
        let got = recv(&self.inner);
        let dt = now_ns() - t0;
        let (calls, ns) = match got {
            Some(_) => (&self.stats.recvs, &self.stats.recv_ns),
            None => (&self.stats.empty_recvs, &self.stats.empty_recv_ns),
        };
        calls.fetch_add(1, Relaxed);
        ns.fetch_add(dt, Relaxed);
        got
    }
}

// `send_batch` and `try_recv_batch` keep their defaults, which go through the
// three methods below exactly as the wrapped transports' own defaults do.
impl<T: Transport> Transport for TransportProbe<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send(&self, env: Envelope) {
        let t0 = now_ns();
        self.inner.send(env);
        self.stats.send_ns.fetch_add(now_ns() - t0, Relaxed);
        self.stats.sends.fetch_add(1, Relaxed);
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.timed_recv(|t| t.try_recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.timed_recv(|t| t.recv_timeout(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use prema::dcs::{HandlerId, LocalFabric, Tag};

    /// Three ranks send interleaved numbered streams to each other through
    /// probes; every receiver sees each sender's numbers in order, and the
    /// probe's counts add up.
    #[test]
    fn probe_preserves_per_pair_fifo_over_local_fabric() {
        const N: usize = 3;
        const PER_PAIR: u64 = 500;
        let stats: Vec<Arc<ProbeStats>> = (0..N).map(|_| Arc::default()).collect();
        let eps: Vec<_> = LocalFabric::new(N)
            .into_iter()
            .zip(&stats)
            .map(|(ep, s)| TransportProbe::new(ep, s.clone()))
            .collect();
        for seq in 0..PER_PAIR {
            for (src, ep) in eps.iter().enumerate() {
                for dst in (0..N).filter(|&d| d != src) {
                    ep.send(Envelope {
                        src,
                        dst,
                        handler: HandlerId(1),
                        tag: Tag::App,
                        payload: Bytes::copy_from_slice(&seq.to_le_bytes()),
                    });
                }
            }
        }
        for (dst, ep) in eps.iter().enumerate() {
            assert_eq!((ep.rank(), ep.nprocs()), (dst, N));
            let mut next = [0u64; N];
            while let Some(env) = ep.recv_timeout(Duration::from_millis(10)) {
                let seq = u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                assert_eq!(seq, next[env.src], "pair {}->{dst} out of order", env.src);
                next[env.src] += 1;
            }
            assert!(ep.try_recv().is_none());
            for (src, &n) in next.iter().enumerate() {
                assert_eq!(n, if src == dst { 0 } else { PER_PAIR });
            }
            let s = &stats[dst];
            assert_eq!(s.sends.load(Relaxed), PER_PAIR * (N as u64 - 1));
            assert_eq!(s.recvs.load(Relaxed), PER_PAIR * (N as u64 - 1));
            assert_eq!(s.empty_recvs.load(Relaxed), 2);
            assert!(s.busy_ns() > 0);
        }
    }
}
