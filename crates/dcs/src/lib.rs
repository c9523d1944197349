//! # prema-dcs — Data-movement and Control Substrate
//!
//! The communication layer beneath PREMA (Barker et al., *Concurrency P&E*
//! 14:77–101, 2002 — reference \[2\] of the SC'03 paper): **single-sided,
//! Active-Messages-style communication**. A message names a handler to run at
//! its destination; receivers learn about messages only by polling, exactly
//! like the MPI-over-polling substrate the paper's experiments ran on.
//!
//! Layering (bottom-up):
//!
//! * [`transport`] — the wire. [`transport::LocalFabric`] connects N ranks
//!   (one OS thread each) through a shared-nothing mesh of bounded SPSC
//!   rings, one per ordered rank pair: a real concurrent message-passing
//!   machine inside one process with a lock-free, allocation-free
//!   steady-state path, O(1) empty polls via a readiness bitmask, and
//!   structural per-pair FIFO (one sender, one ring, one receiver).
//! * `ring` (crate-internal) — the lock-free building blocks under the
//!   transport: the SPSC ring, the readiness bitmask, the parker eventcount
//!   for blocking receives, and the unbounded overflow spill channel.
//! * [`envelope`] — messages: handler id + [`envelope::Tag`] (application vs
//!   system) + payload bytes.
//! * [`comm`] — the per-rank endpoint: sends, polling receives, a sideline
//!   queue for deferring messages, traffic counters.
//! * [`pool`] — a thread-local freelist of payload/frame buffers in
//!   power-of-two size classes, so steady-state encoding reuses allocations.
//! * [`wire`] — tiny fixed-layout payload codec for runtime-internal protocol
//!   messages.
//! * [`chaos`] — a seeded fault-injecting transport decorator: deterministic
//!   drop / duplicate / reorder / delay plus runtime rank-pair partitions.
//! * [`clock`] — the time a layer with timers is handed at construction:
//!   monotonic on threads, hand-stepped in lock-step tests and the simulator.
//! * [`reliable`] — an opt-in ack/retry/backoff reliable-delivery decorator
//!   (sequence-deduped, per-pair FIFO, cumulative ACKs riding on reverse
//!   data frames) that restores the MPI-grade wire contract above an
//!   adversarial transport.
//! * [`udp`] — the out-of-process wire (x86-64 Linux only, and so is the
//!   crate): one UDP socket
//!   per rank, records packed one datagram per peer and sent at each
//!   [`Transport::flush`] or wire slice, batched `sendmmsg`/`recvmmsg` I/O,
//!   a versioned header, and a join handshake, so ranks run as separate OS
//!   processes (see `prema-launch`).
//! * [`env`](mod@env) — validated `PREMA_*` environment-knob parsing (warn-once on
//!   malformed values, range-checked probabilities), shared by every layer.
//! * [`fxmap`] — Fx-hashed map aliases for runtime-internal keys (fast,
//!   deterministic, not DoS-resistant).

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod comm;
pub mod env;
pub mod envelope;
pub mod fxmap;
pub mod pool;
pub mod reliable;
mod ring;
pub mod transport;
pub mod udp;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosHandle, ChaosStats, ChaosTransport};
pub use clock::Clock;
pub use comm::{CommStats, Communicator};
pub use envelope::{Envelope, HandlerId, Rank, Tag};
pub use fxmap::{FxHashMap, FxHashSet};
pub use reliable::{ReliableStats, ReliableTransport, RetryConfig};
pub use transport::{LocalEndpoint, LocalFabric, Transport, WIRE_SLICE};
pub use udp::{UdpBuilder, UdpError, UdpStats, UdpTransport};
pub use wire::{WireReader, WireWriter};
