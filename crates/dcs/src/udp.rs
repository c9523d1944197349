//! The out-of-process wire: a UDP socket [`Transport`].
//!
//! Every transport before this one lived inside a single OS process — the
//! ring mesh is a machine *model*, not a machine. `UdpTransport` makes the
//! wire real: each rank owns one `UdpSocket`, datagrams carry a versioned
//! header, and ranks may be separate OS processes on one host (loopback) or
//! different hosts. The paper's stack (LAM/MPI over a genuinely lossy
//! interconnect) maps onto the existing decorator layering unchanged:
//!
//! ```text
//! Communicator → ReliableTransport → [ChaosTransport] → UdpTransport
//! ```
//!
//! * [`crate::reliable`] supplies ack/retry over the genuinely lossy socket
//!   (UDP drops under load even on loopback);
//! * [`crate::chaos`] wraps the socket to make test runs deterministic at a
//!   *seeded* loss rate regardless of what the kernel does.
//!
//! # Wire format
//!
//! Every datagram starts with a fixed 24-byte little-endian header
//! (`encode_header`/`decode_header`, pinned by `header_roundtrip`): magic
//! `"PRMA"`, protocol version, frame kind (HELLO / WELCOME / DATA), source
//! rank, epoch. A DATA datagram then names its
//! destination rank once (`encode_dst`/`decode_dst`) and packs one or more
//! records, each a handler id, a tag and a length-prefixed payload
//! (`encode_record`/`decode_record`). The epoch ties a datagram to one
//! launch (the launcher stamps its PID), so a straggler process from a
//! previous run cannot corrupt a new one — its frames fail the epoch check
//! and are counted, traced, and dropped.
//!
//! # Join handshake
//!
//! [`UdpBuilder::connect`] runs a symmetric two-message handshake: each rank
//! re-sends HELLO to every peer that has not yet WELCOMEd it, answers every
//! HELLO with WELCOME, and completes once WELCOMEd by all peers. A HELLO or
//! WELCOME whose version or epoch disagrees fails `connect` immediately —
//! cross-version peers are rejected at join time instead of corrupting
//! state mid-run. DATA arriving during the handshake (a peer that finished
//! earlier) is queued normally. After connect, stray HELLOs keep being
//! answered (the last rank to finish still needs WELCOMEs) and bad headers
//! are dropped with per-cause counters plus a `DcsDropped` trace event.
//!
//! # Flush and slice
//!
//! The socket is touched at [`Transport::flush`] and in slices of
//! [`WIRE_SLICE`] on the [`Clock`] the transport is handed:
//!
//! * **Sends pack.** Each destination has at most one *open* datagram — a
//!   pooled buffer of one MTU, the header and destination written once — and
//!   every record, App or System, is appended to it, so per-pair FIFO holds
//!   across tags. A datagram closes when the next record would take its
//!   records past [`MTU_PAYLOAD`]; a record bigger than that travels alone
//!   (up to [`MAX_DGRAM`], which loopback carries whole). A MOL frame, the
//!   object messages a rank's units sent one peer within a slice (up to
//!   1 KiB), rides as one record.
//! * **A flush sends.** `flush` closes every open datagram and sends
//!   everything closed in one `sendmmsg`; it reads nothing. The runtime
//!   flushes before it releases a rank's scheduler lock, so what one
//!   polling pass, unit completion or registration sent leaves together.
//! * **The socket is serviced once per slice.** `try_recv` flushes and then
//!   drains the socket at the first call at least one slice after the last
//!   service; in between it answers from what the last drain made ready and
//!   makes no syscall. `recv_timeout` services at once before it blocks, so
//!   a caller that waits never waits longer than it would without the
//!   slice.
//!
//! A record therefore leaves at its sender's next flush. Under a caller
//! that never flushes (a decorator that does not forward `flush`) it leaves
//! at the first service, at most one slice later while its rank keeps
//! receiving.
//!
//! The syscalls are raw `sendmmsg` / `recvmmsg` (no libc, the
//! `prema::affinity` idiom) over persistent scatter/gather scaffolding,
//! `IO_BATCH` datagrams per call, so the crate builds on x86-64 Linux only
//! (a `compile_error!` says so on any other target). Datagram buffers, sent and received, come from [`crate::pool`] and
//! go back to it when their last handle drops: a warm pair allocates
//! nothing per message.
//!
//! # The receive region
//!
//! Received datagrams land in one region of `IO_BATCH` windows of
//! [`MAX_DGRAM`] bytes (1 MiB), allocated but never zeroed: `recvmmsg`
//! overwrites what it delivers, and a window is read only up to the length
//! the kernel reported (`sys::RecvBatch::datagram`). The drain, the join
//! handshake and `recv_timeout` all receive into it, so building and
//! joining a transport zeroes none of it. `udp_join` in `benches/udp.rs`
//! asserts that a joined loopback pair zeroes at most two `MAX_DGRAM`
//! (zeroed windows would be 32) and times the join: 25–45 µs a pair, against
//! 60–67 µs when the windows are zeroed (2-vCPU VM, six runs a side, means
//! of 20 samples). The saving is in a process that builds transports
//! repeatedly; a fresh process's first allocations come from pages the
//! kernel has already zeroed.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!(
    "prema-dcs builds on x86-64 Linux only: the UDP wire's batched I/O is raw \
     sendmmsg/recvmmsg syscalls (DESIGN.md §15)"
);

use crate::clock::Clock;
use crate::envelope::{Envelope, HandlerId, Rank, Tag};
use crate::pool;
pub use crate::transport::WIRE_SLICE;
use crate::transport::{saturating_deadline, Transport};
use crate::wire::{WireReader, WireWriter};
use bytes::{BufMut, Bytes};
use prema_trace::{TraceEvent, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// `"PRMA"` in little-endian — the first four bytes of every datagram.
const MAGIC: u32 = 0x414D_5250;
/// Wire protocol version; bumped on any header or DATA layout change, and
/// when the reliable layer's frames (every DATA payload `prema-launch`
/// sends) change theirs: 2 = data frames carry the reverse direction's ACK;
/// 3 = a DATA datagram packs records behind one destination.
pub const PROTO_VERSION: u32 = 3;

/// Frame kinds carried in the header.
const KIND_HELLO: u32 = 0;
const KIND_WELCOME: u32 = 1;
const KIND_DATA: u32 = 2;

/// Fixed header length: magic + version + kind + src (u32 each) + epoch.
const HEADER_LEN: usize = 24;
/// A DATA datagram's destination rank, written once after the header.
const DST_LEN: usize = 4;
/// Per-record overhead: handler + tag + payload length prefix, u32 each.
const RECORD_OVERHEAD: usize = 12;

/// Largest UDP payload that fits a single IPv4 datagram (65535 − 20 IP −
/// 8 UDP). Loopback carries these whole.
pub const MAX_DGRAM: usize = 65_507;
/// Record bytes (overhead included) one datagram packs before it closes.
/// With the header and destination it stays inside a 1500-byte ethernet MTU
/// after the UDP and IP headers; a record bigger than this travels alone.
pub const MTU_PAYLOAD: usize = 1408;
/// An open datagram's buffer: it is taken from the pool at this size and
/// never regrows.
const DGRAM_CAP: usize = HEADER_LEN + DST_LEN + MTU_PAYLOAD;

/// Datagrams per `sendmmsg`/`recvmmsg` syscall.
const IO_BATCH: usize = 16;
/// Handshake HELLO re-send period.
const HELLO_INTERVAL: Duration = Duration::from_millis(2);
/// Longest single blocking wait inside `recv_timeout`; the loop re-checks
/// its deadline (and the cached socket timeout stays coarse enough to be
/// reused) after each.
const MAX_BLOCK: Duration = Duration::from_millis(100);

/// The parsed fixed header of any datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Header {
    magic: u32,
    version: u32,
    kind: u32,
    src: u32,
    epoch: u64,
}

// Wire schema, as encode/decode pairs; `header_roundtrip` and
// `dgram_roundtrip` decode what each writer wrote, field by field, and
// `wire_layout_is_pinned` holds the bytes each writer writes.

/// Append the fixed header to `w`.
fn encode_header(w: WireWriter, h: &Header) -> WireWriter {
    w.u32(h.magic)
        .u32(h.version)
        .u32(h.kind)
        .u32(h.src)
        .u64(h.epoch)
}

/// Read the fixed header. Field validation (magic, version, epoch) is the
/// caller's: which mismatches are fatal depends on whether we are joining
/// or in steady state.
fn decode_header(r: &mut WireReader) -> Option<Header> {
    Some(Header {
        magic: r.try_u32()?,
        version: r.try_u32()?,
        kind: r.try_u32()?,
        src: r.try_u32()?,
        epoch: r.try_u64()?,
    })
}

/// Build a control (HELLO / WELCOME) datagram. Control datagrams are
/// header-only, so their reader is [`decode_header`] itself — this is a
/// composer, not a schema writer.
fn control_dgram(kind: u32, version: u32, src: u32, epoch: u64) -> Bytes {
    encode_header(
        WireWriter::pooled(HEADER_LEN),
        &Header {
            magic: MAGIC,
            version,
            kind,
            src,
            epoch,
        },
    )
    .finish()
}

/// Start a DATA datagram from `src` to `dst` in a pooled buffer of `cap`
/// bytes: the header and the destination, written once; records follow.
/// A composer, like [`control_dgram`].
fn open_dgram(src: Rank, dst: Rank, epoch: u64, cap: usize) -> WireWriter {
    let w = encode_header(
        WireWriter::pooled(cap),
        &Header {
            magic: MAGIC,
            version: PROTO_VERSION,
            kind: KIND_DATA,
            src: src as u32,
            epoch,
        },
    );
    encode_dst(w, dst)
}

/// Append a DATA datagram's destination rank, which follows the header.
fn encode_dst(w: WireWriter, dst: Rank) -> WireWriter {
    w.u32(dst as u32)
}

/// Read a DATA datagram's destination rank.
fn decode_dst(r: &mut WireReader) -> Option<Rank> {
    Some(r.try_u32()? as Rank)
}

/// Append one record: handler, tag, length-prefixed payload.
fn encode_record(w: WireWriter, env: &Envelope) -> WireWriter {
    w.u32(env.handler.0)
        .u32(match env.tag {
            Tag::App => 0,
            Tag::System => 1,
        })
        .bytes(&env.payload)
}

/// Read one record of a datagram from `src` to `dst`.
fn decode_record(r: &mut WireReader, src: Rank, dst: Rank) -> Option<Envelope> {
    let handler = HandlerId(r.try_u32()?);
    let tag = match r.try_u32()? {
        0 => Tag::App,
        _ => Tag::System,
    };
    let payload = r.try_bytes()?;
    Some(Envelope {
        src,
        dst,
        handler,
        tag,
        payload,
    })
}

/// Append every record left in `r` to `out`, in order. `false` when the body
/// holds no record or ends in a partial one; the whole records before it
/// are delivered either way. Payloads are slices of the datagram, so
/// nothing here allocates in proportion to what the bytes claim.
fn unpack_records(r: &mut WireReader, src: Rank, dst: Rank, out: &mut VecDeque<Envelope>) -> bool {
    if r.remaining() == 0 {
        return false;
    }
    while r.remaining() > 0 {
        match decode_record(r, src, dst) {
            Some(env) => out.push_back(env),
            None => return false,
        }
    }
    true
}

/// Copy one received datagram out of the receive region into a pooled
/// buffer, which goes back to the pool when the last record that shares it
/// drops.
fn frame_of(buf: &[u8]) -> Bytes {
    let mut b = pool::take(buf.len().max(1));
    b.put_slice(buf);
    b.freeze()
}

/// Why a [`UdpBuilder`] or [`UdpTransport`] operation failed.
#[derive(Debug)]
pub enum UdpError {
    /// Socket creation / configuration failed.
    Io(io::Error),
    /// A peer address is not IPv4 (the raw-syscall path speaks
    /// `sockaddr_in` only).
    AddrUnsupported(SocketAddr),
    /// A peer spoke a different protocol version during the handshake.
    VersionMismatch {
        /// The peer's claimed rank.
        peer: u32,
        /// The version it sent.
        got: u32,
    },
    /// A peer belongs to a different launch (epoch) — typically a straggler
    /// process from a previous run.
    EpochMismatch {
        /// The peer's claimed rank.
        peer: u32,
        /// The epoch it sent.
        got: u64,
    },
    /// The handshake deadline passed before every peer answered.
    HandshakeTimeout {
        /// Ranks that never sent WELCOME.
        missing: Vec<usize>,
    },
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::Io(e) => write!(f, "udp socket error: {e}"),
            UdpError::AddrUnsupported(a) => write!(f, "peer address {a} is not IPv4"),
            UdpError::VersionMismatch { peer, got } => write!(
                f,
                "peer rank {peer} speaks protocol version {got}, this build speaks {PROTO_VERSION}"
            ),
            UdpError::EpochMismatch { peer, got } => {
                write!(
                    f,
                    "peer rank {peer} belongs to a different launch (epoch {got})"
                )
            }
            UdpError::HandshakeTimeout { missing } => {
                write!(f, "handshake timed out waiting for ranks {missing:?}")
            }
        }
    }
}

impl std::error::Error for UdpError {}

impl From<io::Error> for UdpError {
    fn from(e: io::Error) -> Self {
        UdpError::Io(e)
    }
}

/// Datagram-level counters, snapshot via [`UdpTransport::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// DATA datagrams handed to the kernel.
    pub sent: u64,
    /// Records packed into DATA datagrams at `send`: `records_sent / sent`
    /// is the packing ratio.
    pub records_sent: u64,
    /// DATA datagrams addressed to this rank and unpacked.
    pub received: u64,
    /// Records delivered up the stack out of those datagrams.
    pub records_received: u64,
    /// `sendmmsg` (or fallback send) syscalls issued.
    pub send_calls: u64,
    /// `recvmmsg` (or fallback recv) syscalls that returned datagrams.
    pub recv_calls: u64,
    /// Non-blocking `recvmmsg` (or fallback recv) syscalls that found the
    /// socket empty.
    pub recv_empty: u64,
    /// Datagrams shorter than the fixed header.
    pub runts: u64,
    /// Header magic mismatches (stray traffic on our port).
    pub bad_magic: u64,
    /// Protocol-version mismatches seen in steady state.
    pub bad_version: u64,
    /// Epoch mismatches seen in steady state (straggler processes).
    pub bad_epoch: u64,
    /// DATA datagrams whose header parses but whose body does not: no
    /// destination, no record, or a partial last record (the whole records
    /// before it are delivered) — and those naming a source rank outside
    /// the machine, which deliver nothing.
    pub malformed: u64,
    /// DATA datagrams addressed to a different rank.
    pub misrouted: u64,
    /// Sends refused because the record cannot fit a datagram of
    /// [`MAX_DGRAM`].
    pub oversize: u64,
    /// Datagrams abandoned after a send-side socket error.
    pub send_errors: u64,
    /// HELLOs answered with WELCOME (handshake and steady state).
    pub hellos_answered: u64,
}

/// Raw batched-I/O syscalls for x86-64 Linux — no libc, the
/// `prema::affinity` idiom. Struct layouts match the kernel ABI for this
/// target exactly (x86-64 `sockaddr_in` / `iovec` / `msghdr` / `mmsghdr`).
mod sys {
    use super::{IO_BATCH, MAX_DGRAM};
    use std::mem::MaybeUninit;
    use std::net::SocketAddrV4;

    pub const MSG_DONTWAIT: i64 = 0x40;
    pub const MSG_WAITFORONE: i64 = 0x10000;
    pub const EAGAIN: i64 = 11;
    pub const EINTR: i64 = 4;

    /// Kernel `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *mut u8,
        pub len: usize,
    }

    /// Kernel `struct sockaddr_in` (16 bytes).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SockAddrIn {
        pub family: u16,
        pub port_be: u16,
        pub addr_be: u32,
        pub zero: [u8; 8],
    }

    /// Kernel `struct msghdr` (56 bytes on x86-64; `repr(C)` reproduces the
    /// kernel's padding after `namelen` and `flags`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub name: *mut SockAddrIn,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut u8,
        pub controllen: usize,
        pub flags: i32,
    }

    /// Kernel `struct mmsghdr` (64 bytes on x86-64).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: u32,
    }

    pub const AF_INET: u16 = 2;

    pub fn to_sockaddr(sa: &SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET,
            port_be: sa.port().to_be(),
            addr_be: u32::from_be_bytes(sa.ip().octets()).to_be(),
            zero: [0; 8],
        }
    }

    pub fn from_sockaddr(sa: &SockAddrIn) -> SocketAddrV4 {
        SocketAddrV4::new(
            std::net::Ipv4Addr::from(u32::from_be(sa.addr_be).to_be_bytes()),
            u16::from_be(sa.port_be),
        )
    }

    /// `sendmmsg(fd, hdrs, vlen, flags)`; returns datagrams sent or
    /// `-errno`.
    ///
    /// # Safety
    /// `hdrs[..vlen]` must point at valid, live iovec/sockaddr scaffolding
    /// for the duration of the call.
    pub unsafe fn sendmmsg(fd: i32, hdrs: *mut MMsgHdr, vlen: u32, flags: i64) -> i64 {
        let ret: i64;
        // SAFETY: the syscall reads only through the pointers the caller
        // vouches for; rcx/r11 are clobbered by `syscall` itself.
        std::arch::asm!(
            "syscall",
            inlateout("rax") 307i64 => ret, // __NR_sendmmsg
            in("rdi") fd as i64,
            in("rsi") hdrs,
            in("rdx") vlen as i64,
            in("r10") flags,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// `recvmmsg(fd, hdrs, vlen, flags, NULL)`; returns datagrams received
    /// or `-errno` (notably `-EAGAIN` when the queue is empty or the
    /// socket's read timeout passed).
    ///
    /// # Safety
    /// `hdrs[..vlen]` must point at valid scaffolding whose iovec buffers
    /// are writable for the duration of the call.
    unsafe fn recvmmsg(fd: i32, hdrs: *mut MMsgHdr, vlen: u32, flags: i64) -> i64 {
        let ret: i64;
        // SAFETY: as for `sendmmsg`; the kernel writes through the iovec
        // and sockaddr pointers, all owned by the caller's scratch arrays.
        std::arch::asm!(
            "syscall",
            inlateout("rax") 299i64 => ret, // __NR_recvmmsg
            in("rdi") fd as i64,
            in("rsi") hdrs,
            in("rdx") vlen as i64,
            in("r10") flags,
            in("r8") 0i64, // no per-call timeout struct
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Where the kernel writes received datagrams: one region of
    /// `IO_BATCH` windows of `MAX_DGRAM` bytes, allocated but never zeroed
    /// (the kernel overwrites what it delivers, and nothing past a
    /// datagram's reported length is read), plus the scaffolding that
    /// points `recvmmsg` at the windows.
    pub struct RecvBatch {
        region: Box<[MaybeUninit<u8>]>,
        scratch: Scratch,
        /// Datagrams the last `recv` wrote, into windows `0..got`.
        got: usize,
    }

    impl RecvBatch {
        pub fn new() -> Self {
            RecvBatch {
                region: Box::new_uninit_slice(IO_BATCH * MAX_DGRAM),
                scratch: Scratch::with_capacity(IO_BATCH),
                got: 0,
            }
        }

        /// One `recvmmsg` into the windows: `MSG_DONTWAIT` never blocks;
        /// `MSG_WAITFORONE` blocks under the socket's read timeout for the
        /// first datagram and then takes only what is already queued.
        /// Returns datagrams received or `Err(errno)`.
        pub fn recv(&mut self, fd: i32, flags: i64) -> Result<usize, i64> {
            let s = &mut self.scratch;
            s.addrs.clear();
            s.iovs.clear();
            s.hdrs.clear();
            for window in self.region.chunks_exact_mut(MAX_DGRAM) {
                s.addrs.push(SockAddrIn {
                    family: 0,
                    port_be: 0,
                    addr_be: 0,
                    zero: [0; 8],
                });
                s.iovs.push(IoVec {
                    base: window.as_mut_ptr().cast(),
                    len: MAX_DGRAM,
                });
            }
            for i in 0..IO_BATCH {
                s.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut s.addrs[i],
                        namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        iov: &mut s.iovs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            // SAFETY: scaffolding and windows both live in `self`, held
            // exclusively for the duration of the call.
            let ret = unsafe { recvmmsg(fd, s.hdrs.as_mut_ptr(), IO_BATCH as u32, flags) };
            self.got = ret.max(0) as usize;
            if ret < 0 {
                Err(-ret)
            } else {
                Ok(self.got)
            }
        }

        /// Datagram `i` of the last `recv` and who sent it.
        pub fn datagram(&self, i: usize) -> (&[u8], SocketAddrV4) {
            assert!(i < self.got, "window {i} holds no datagram");
            let len = (self.scratch.hdrs[i].len as usize).min(MAX_DGRAM);
            let window = &self.region[i * MAX_DGRAM..][..len];
            // SAFETY: the last `recvmmsg` filled windows `0..got` and wrote
            // `hdrs[i].len` bytes at the start of window `i`, so its first
            // `len` bytes are initialized; nothing past them is read.
            let bytes = unsafe { std::slice::from_raw_parts(window.as_ptr().cast::<u8>(), len) };
            (bytes, from_sockaddr(&self.scratch.addrs[i]))
        }
    }

    /// Persistent syscall scaffolding: pointer arrays rebuilt (not
    /// reallocated) on every batched call.
    pub struct Scratch {
        pub addrs: Vec<SockAddrIn>,
        pub iovs: Vec<IoVec>,
        pub hdrs: Vec<MMsgHdr>,
    }

    impl Scratch {
        pub fn with_capacity(n: usize) -> Self {
            Scratch {
                addrs: Vec::with_capacity(n),
                iovs: Vec::with_capacity(n),
                hdrs: Vec::with_capacity(n),
            }
        }
    }

    // SAFETY: the raw pointers inside `Scratch` are only ever written and
    // consumed within a single batched-I/O call on one thread — between
    // calls they are dangling scaffolding, never dereferenced. Ownership of
    // the pointed-to buffers lives beside the scratch in the same transport.
    unsafe impl Send for Scratch {}
}

/// Send-side state: the datagram each destination's records are packed
/// into, and the closed datagrams waiting for the next flush.
struct TxState {
    /// `open[d]`: the datagram to rank `d` still taking records, if any.
    open: Vec<Option<WireWriter>>,
    /// Closed datagrams (destination rank + bytes), in the order they
    /// closed, so per-destination order is send order.
    staged: Vec<(Rank, Bytes)>,
    sys: sys::Scratch,
}

/// Receive-side state: decoded envelopes ready for delivery plus where the
/// kernel writes datagrams.
struct RxState {
    ready: VecDeque<Envelope>,
    /// The last drain made something ready and no `None` has ended that
    /// burst yet (see `try_recv`).
    in_burst: bool,
    batch: sys::RecvBatch,
}

/// A bound-but-unjoined UDP endpoint: created by [`UdpTransport::bind`],
/// consumed by [`UdpBuilder::connect`]. The two-phase construction exists
/// because every rank must learn every peer's bound port before anyone can
/// join — the launcher collects [`UdpBuilder::local_addr`] from each rank
/// and distributes the full map.
pub struct UdpBuilder {
    socket: UdpSocket,
    local: SocketAddr,
}

impl UdpBuilder {
    /// This endpoint's bound address (advertise this to peers).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Run the join handshake and produce the transport, timing its wire
    /// slice on the monotonic clock. `peers[r]` is rank `r`'s bound address
    /// (including our own at `peers[rank]`); `epoch` identifies this launch
    /// (the launcher stamps its PID) and must agree across ranks. Fails fast
    /// on a version or epoch mismatch, and with
    /// [`UdpError::HandshakeTimeout`] if any peer stays silent past
    /// `timeout`.
    pub fn connect(
        self,
        rank: Rank,
        peers: Vec<SocketAddr>,
        epoch: u64,
        timeout: Duration,
    ) -> Result<UdpTransport, UdpError> {
        self.connect_with_clock(rank, peers, epoch, timeout, Clock::monotonic())
    }

    /// [`connect`](Self::connect), with the wire slice timed by `clock`
    /// (a [`Clock::manual`] one in lock-step tests). The handshake's own
    /// deadline is wall time either way.
    pub fn connect_with_clock(
        self,
        rank: Rank,
        peers: Vec<SocketAddr>,
        epoch: u64,
        timeout: Duration,
        clock: Clock,
    ) -> Result<UdpTransport, UdpError> {
        let t = UdpTransport::from_parts(self.socket, rank, peers, epoch, clock)?;
        t.handshake(PROTO_VERSION, timeout)?;
        Ok(t)
    }
}

/// A socket-backed [`Transport`]: one UDP socket per rank, versioned
/// datagrams packing records, the socket serviced once per wire slice. See
/// the module docs for the layering, wire format and slice rule.
pub struct UdpTransport {
    socket: UdpSocket,
    rank: Rank,
    epoch: u64,
    peers: Vec<SocketAddrV4>,
    tx: RefCell<TxState>,
    rx: RefCell<RxState>,
    stats: RefCell<UdpStats>,
    clock: Clock,
    /// When `try_recv` next services the socket: one [`WIRE_SLICE`] after
    /// the last service, on `clock`.
    next_service: Cell<Duration>,
    /// Last value handed to `set_read_timeout`, to skip redundant
    /// `setsockopt` syscalls in the blocking-receive loop.
    cached_timeout: Cell<Option<Duration>>,
    tracer: Tracer,
}

impl UdpTransport {
    /// Bind a socket (use port 0 to let the kernel pick) and start the
    /// two-phase join.
    pub fn bind(addr: SocketAddr) -> Result<UdpBuilder, UdpError> {
        let socket = UdpSocket::bind(addr)?;
        let local = socket.local_addr()?;
        Ok(UdpBuilder { socket, local })
    }

    fn from_parts(
        socket: UdpSocket,
        rank: Rank,
        peers: Vec<SocketAddr>,
        epoch: u64,
        clock: Clock,
    ) -> Result<Self, UdpError> {
        let peers = peers
            .into_iter()
            .map(|a| match a {
                SocketAddr::V4(v4) => Ok(v4),
                other => Err(UdpError::AddrUnsupported(other)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = peers.len();
        Ok(UdpTransport {
            socket,
            rank,
            epoch,
            peers,
            tx: RefCell::new(TxState {
                open: (0..n).map(|_| None).collect(),
                staged: Vec::with_capacity(n.max(IO_BATCH)),
                sys: sys::Scratch::with_capacity(IO_BATCH),
            }),
            rx: RefCell::new(RxState {
                ready: VecDeque::new(),
                in_burst: false,
                batch: sys::RecvBatch::new(),
            }),
            stats: RefCell::new(UdpStats::default()),
            clock,
            next_service: Cell::new(Duration::ZERO),
            cached_timeout: Cell::new(None),
            tracer: Tracer::off(),
        })
    }

    /// Attach a tracer so dropped datagrams show up in the event stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This rank's bound socket address.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.socket.local_addr().ok()
    }

    /// The launch epoch this transport joined with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshot the datagram counters.
    pub fn stats(&self) -> UdpStats {
        *self.stats.borrow()
    }

    /// Fire-and-forget a control frame to `addr` (handshake traffic — tiny,
    /// rare, not worth staging).
    fn send_control(&self, kind: u32, version: u32, addr: &SocketAddrV4) {
        let frame = control_dgram(kind, version, self.rank as u32, self.epoch);
        let _ = self.socket.send_to(&frame, addr);
    }

    /// The symmetric join protocol (see the module docs). `version` is a
    /// parameter so tests can impersonate an incompatible build.
    fn handshake(&self, version: u32, timeout: Duration) -> Result<(), UdpError> {
        let deadline = saturating_deadline(timeout);
        let n = self.peers.len();
        let mut welcomed = vec![false; n];
        welcomed[self.rank] = true;
        let mut next_hello = Instant::now();
        loop {
            if welcomed.iter().all(|w| *w) {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(UdpError::HandshakeTimeout {
                    missing: (0..n).filter(|&r| !welcomed[r]).collect(),
                });
            }
            if now >= next_hello {
                for (r, w) in welcomed.iter().enumerate() {
                    if !*w {
                        self.send_control(KIND_HELLO, version, &self.peers[r]);
                    }
                }
                next_hello = now + HELLO_INTERVAL;
            }
            let wait = (deadline - now).min(HELLO_INTERVAL);
            self.set_read_timeout(wait);
            let rx = &mut *self.rx.borrow_mut();
            self.recv_wait(rx, |dgram, from, ready| {
                self.handshake_ingest(dgram, from, version, &mut welcomed, ready)
            })?;
        }
    }

    /// Classify one datagram received while joining. Version/epoch
    /// mismatches are fatal here (the whole point of the handshake); DATA
    /// from peers that finished earlier is queued for normal delivery.
    fn handshake_ingest(
        &self,
        dgram: &[u8],
        from: SocketAddrV4,
        version: u32,
        welcomed: &mut [bool],
        ready: &mut VecDeque<Envelope>,
    ) -> Result<(), UdpError> {
        let Some((header, body)) = self.parse_header(dgram) else {
            return Ok(()); // runt or stray magic: counted, ignored
        };
        if header.version != version {
            return Err(UdpError::VersionMismatch {
                peer: header.src,
                got: header.version,
            });
        }
        if header.epoch != self.epoch {
            return Err(UdpError::EpochMismatch {
                peer: header.src,
                got: header.epoch,
            });
        }
        match header.kind {
            KIND_HELLO => {
                self.stats.borrow_mut().hellos_answered += 1;
                self.send_control(KIND_WELCOME, version, &from);
            }
            KIND_WELCOME => {
                let src = header.src as usize;
                if src < welcomed.len() {
                    welcomed[src] = true;
                }
            }
            KIND_DATA => {
                let mut r = WireReader::new(body);
                self.ingest_data(&mut r, &header, ready);
            }
            _ => self.stats.borrow_mut().malformed += 1,
        }
        Ok(())
    }

    /// Copy a received datagram into a pooled buffer, read and
    /// magic-check the header. Returns the header plus the remaining body.
    /// `None` ⇒ already counted as runt / stray.
    fn parse_header(&self, dgram: &[u8]) -> Option<(Header, Bytes)> {
        if dgram.len() < HEADER_LEN {
            self.stats.borrow_mut().runts += 1;
            return None;
        }
        let frame = frame_of(dgram);
        let mut r = WireReader::new(frame);
        let header = decode_header(&mut r)?;
        if header.magic != MAGIC {
            self.stats.borrow_mut().bad_magic += 1;
            return None;
        }
        // The reader has advanced past the header: what's left is the body.
        Some((header, r.into_inner()))
    }

    /// Steady-state classification of one received datagram (bytes already
    /// copied out of the scratch buffer). Bad headers are counted, traced,
    /// and dropped — never fatal once joined.
    fn ingest_dgram(&self, frame: Bytes, from: SocketAddrV4, ready: &mut VecDeque<Envelope>) {
        if frame.len() < HEADER_LEN {
            self.stats.borrow_mut().runts += 1;
            return;
        }
        let mut r = WireReader::new(frame);
        let Some(header) = decode_header(&mut r) else {
            self.stats.borrow_mut().runts += 1;
            return;
        };
        let peer = (header.src as usize).min(self.peers.len());
        if header.magic != MAGIC {
            self.stats.borrow_mut().bad_magic += 1;
            return;
        }
        if header.version != PROTO_VERSION {
            self.stats.borrow_mut().bad_version += 1;
            self.tracer
                .emit(|| TraceEvent::DcsDropped { peer, handler: 0 });
            return;
        }
        if header.epoch != self.epoch {
            self.stats.borrow_mut().bad_epoch += 1;
            self.tracer
                .emit(|| TraceEvent::DcsDropped { peer, handler: 0 });
            return;
        }
        match header.kind {
            KIND_HELLO => {
                // A peer still joining (we finished first): keep answering.
                self.stats.borrow_mut().hellos_answered += 1;
                self.send_control(KIND_WELCOME, PROTO_VERSION, &from);
            }
            KIND_WELCOME => {}
            KIND_DATA => self.ingest_data(&mut r, &header, ready),
            _ => self.stats.borrow_mut().malformed += 1,
        }
    }

    /// Unpack a DATA datagram's body (destination, then records) into
    /// `ready`. A datagram from a source outside the machine is malformed
    /// and dropped whole, as is one for another rank; a body that does not
    /// parse to the end delivers its whole records and counts as malformed
    /// once.
    fn ingest_data(&self, r: &mut WireReader, header: &Header, ready: &mut VecDeque<Envelope>) {
        let src = header.src as Rank;
        let peer = src.min(self.peers.len());
        let mut stats = self.stats.borrow_mut();
        let handler = match decode_dst(r) {
            _ if src >= self.peers.len() => {
                stats.malformed += 1;
                0
            }
            Some(dst) if dst == self.rank => {
                stats.received += 1;
                let before = ready.len();
                let whole = unpack_records(r, src, dst, ready);
                stats.records_received += (ready.len() - before) as u64;
                if whole {
                    return;
                }
                stats.malformed += 1;
                0
            }
            Some(dst) => {
                stats.misrouted += 1;
                decode_record(r, src, dst).map_or(0, |env| env.handler.0)
            }
            None => {
                stats.malformed += 1;
                0
            }
        };
        self.tracer
            .emit(|| TraceEvent::DcsDropped { peer, handler });
    }

    /// Set the socket read timeout, skipping the `setsockopt` when the
    /// value is unchanged (the blocking loop re-arms on every wait).
    fn set_read_timeout(&self, wait: Duration) {
        let wait = wait.max(Duration::from_millis(1));
        if self.cached_timeout.get() == Some(wait) {
            return;
        }
        if self.socket.set_read_timeout(Some(wait)).is_ok() {
            self.cached_timeout.set(Some(wait));
        }
    }

    /// One look at the socket, at `now` on the transport's clock: a
    /// [`Transport::flush`], then a drain. `try_recv` looks again one slice
    /// later. Returns envelopes made ready.
    fn service(&self, now: Duration) -> usize {
        self.flush();
        self.next_service.set(now + WIRE_SLICE);
        self.drain_rx()
    }

    /// Drain everything queued on the socket without blocking — `recvmmsg`
    /// in [`IO_BATCH`]-sized gulps. Returns envelopes made ready.
    fn drain_rx(&self) -> usize {
        let fd = self.socket.as_raw_fd();
        let rx = &mut *self.rx.borrow_mut();
        let before = rx.ready.len();
        loop {
            let got = match rx.batch.recv(fd, sys::MSG_DONTWAIT) {
                Ok(got) if got > 0 => got,
                _ => {
                    // -EAGAIN: queue empty. -EINTR: let the caller's loop retry.
                    self.stats.borrow_mut().recv_empty += 1;
                    break;
                }
            };
            self.stats.borrow_mut().recv_calls += 1;
            for i in 0..got {
                let (dgram, from) = rx.batch.datagram(i);
                self.ingest_dgram(frame_of(dgram), from, &mut rx.ready);
            }
            if got < IO_BATCH {
                break; // queue drained mid-batch
            }
        }
        rx.ready.len() - before
    }

    /// Block under the socket's read timeout for the next datagram, then
    /// take whatever else is already queued (`MSG_WAITFORONE`), into the
    /// same windows a drain uses, and hand each datagram with `rx.ready` to
    /// `each`. Returns datagrams received: 0 when the timeout passed.
    fn recv_wait(
        &self,
        rx: &mut RxState,
        mut each: impl FnMut(&[u8], SocketAddrV4, &mut VecDeque<Envelope>) -> Result<(), UdpError>,
    ) -> Result<usize, UdpError> {
        let got = match rx.batch.recv(self.socket.as_raw_fd(), sys::MSG_WAITFORONE) {
            Ok(got) => got,
            Err(sys::EAGAIN | sys::EINTR) => return Ok(0),
            Err(errno) => return Err(io::Error::from_raw_os_error(errno as i32).into()),
        };
        for i in 0..got {
            let (dgram, from) = rx.batch.datagram(i);
            each(dgram, from, &mut rx.ready)?;
        }
        Ok(got)
    }
}

impl Transport for UdpTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.peers.len()
    }

    /// Packs `env` into its destination's open datagram, whatever its tag;
    /// it leaves at the next [`Transport::flush`] or service.
    fn send(&self, env: Envelope) {
        let record = RECORD_OVERHEAD + env.payload.len();
        if record > MAX_DGRAM - HEADER_LEN - DST_LEN {
            self.stats.borrow_mut().oversize += 1;
            self.tracer.emit(|| TraceEvent::DcsDropped {
                peer: env.dst,
                handler: env.handler.0,
            });
            return;
        }
        let dst = env.dst;
        let TxState { open, staged, .. } = &mut *self.tx.borrow_mut();
        let slot = &mut open[dst];
        if let Some(full) = slot.take_if(|w| w.len() + record > DGRAM_CAP) {
            staged.push((dst, full.finish()));
        }
        let w = slot.take().unwrap_or_else(|| {
            let cap = DGRAM_CAP.max(HEADER_LEN + DST_LEN + record);
            open_dgram(self.rank, dst, self.epoch, cap)
        });
        let w = encode_record(w, &env);
        if record > MTU_PAYLOAD {
            staged.push((dst, w.finish()));
        } else {
            *slot = Some(w);
        }
        self.stats.borrow_mut().records_sent += 1;
    }

    /// Answers from what the last drain made ready; the socket is serviced
    /// (open datagrams out, then one drain) only when nothing is ready and a
    /// slice has passed since the last service. The `None` that ends a burst
    /// a drain made ready costs not even the clock reading.
    fn try_recv(&self) -> Option<Envelope> {
        {
            let rx = &mut *self.rx.borrow_mut();
            if let Some(env) = rx.ready.pop_front() {
                return Some(env);
            }
            if std::mem::take(&mut rx.in_burst) {
                return None;
            }
        }
        let now = self.clock.now();
        if now < self.next_service.get() {
            return None;
        }
        let made_ready = self.service(now) > 0;
        let rx = &mut *self.rx.borrow_mut();
        rx.in_burst = made_ready;
        rx.ready.pop_front()
    }

    /// Services the socket at once, whatever the slice says, then blocks
    /// for the next datagram if nothing was ready.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        if self.rx.borrow().ready.is_empty() {
            self.service(self.clock.now());
        }
        let deadline = saturating_deadline(timeout);
        loop {
            if let Some(env) = self.rx.borrow_mut().ready.pop_front() {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let wait = (deadline - now).min(MAX_BLOCK);
            self.set_read_timeout(wait);
            let rx = &mut *self.rx.borrow_mut();
            let got = self.recv_wait(rx, |dgram, from, ready| {
                self.ingest_dgram(frame_of(dgram), from, ready);
                Ok(())
            });
            if let Ok(1..) = got {
                self.stats.borrow_mut().recv_calls += 1;
            }
        }
    }

    /// Closes every open datagram and pushes every closed one to the kernel
    /// — `sendmmsg` in [`IO_BATCH`]-sized chunks; reads nothing. Each buffer
    /// goes back to the pool as the staged list is cleared after the
    /// syscalls.
    fn flush(&self) {
        let tx = &mut *self.tx.borrow_mut();
        for (dst, slot) in tx.open.iter_mut().enumerate() {
            if let Some(w) = slot.take() {
                tx.staged.push((dst, w.finish()));
            }
        }
        if tx.staged.is_empty() {
            return;
        }
        let fd = self.socket.as_raw_fd();
        let mut start = 0;
        while start < tx.staged.len() {
            let chunk = (tx.staged.len() - start).min(IO_BATCH);
            tx.sys.addrs.clear();
            tx.sys.iovs.clear();
            tx.sys.hdrs.clear();
            for (dst, bytes) in tx.staged[start..start + chunk].iter() {
                tx.sys.addrs.push(sys::to_sockaddr(&self.peers[*dst]));
                tx.sys.iovs.push(sys::IoVec {
                    base: bytes.as_ptr() as *mut u8,
                    len: bytes.len(),
                });
            }
            for i in 0..chunk {
                tx.sys.hdrs.push(sys::MMsgHdr {
                    hdr: sys::MsgHdr {
                        name: &mut tx.sys.addrs[i],
                        namelen: std::mem::size_of::<sys::SockAddrIn>() as u32,
                        iov: &mut tx.sys.iovs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            // SAFETY: hdrs/iovs/addrs live in `tx.sys`, the payload bytes in
            // `tx.staged` — all alive across the call, nothing aliased
            // mutably.
            let ret = unsafe { sys::sendmmsg(fd, tx.sys.hdrs.as_mut_ptr(), chunk as u32, 0) };
            let mut stats = self.stats.borrow_mut();
            stats.send_calls += 1;
            if ret > 0 {
                stats.sent += ret as u64;
                start += ret as usize;
            } else if ret == -sys::EINTR || ret == -sys::EAGAIN {
                // Interrupted or transiently full: retry the same chunk.
            } else {
                // Hard error (e.g. ECONNREFUSED bounced off a dead peer):
                // skip one datagram so the flush always terminates.
                stats.send_errors += 1;
                start += 1;
            }
        }
        tx.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosHandle, ChaosTransport};
    use crate::reliable::{ReliableTransport, RetryConfig};
    use proptest::prelude::*;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("loopback addr")
    }

    fn env_to(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            src,
            dst,
            handler: HandlerId(n),
            tag: Tag::App,
            payload: Bytes::from_static(b"payload"),
        }
    }

    fn sys_to(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            tag: Tag::System,
            ..env_to(src, dst, n)
        }
    }

    /// What an envelope says, for comparing lists of them.
    fn key(e: &Envelope) -> (Rank, Rank, u32, Tag, Bytes) {
        (e.src, e.dst, e.handler.0, e.tag, e.payload.clone())
    }

    /// Two in-process transports joined over real loopback sockets, on the
    /// monotonic clock.
    fn pair(epoch: u64) -> (UdpTransport, UdpTransport) {
        let b0 = UdpTransport::bind(loopback()).expect("bind rank 0");
        let b1 = UdpTransport::bind(loopback()).expect("bind rank 1");
        let addrs = vec![b0.local_addr(), b1.local_addr()];
        let addrs1 = addrs.clone();
        let h = std::thread::spawn(move || {
            b1.connect(1, addrs1, epoch, Duration::from_secs(5))
                .expect("rank 1 join")
        });
        let t0 = b0
            .connect(0, addrs, epoch, Duration::from_secs(5))
            .expect("rank 0 join");
        let t1 = h.join().expect("rank 1 thread");
        (t0, t1)
    }

    /// `n` transports joined over real loopback sockets on one manual
    /// clock, each serviced once at t = 0, so every rank's next `try_recv`
    /// service is one slice away.
    fn stepped(n: usize, epoch: u64) -> (Vec<UdpTransport>, Clock) {
        let clock = Clock::manual();
        let builders: Vec<_> = (0..n)
            .map(|_| UdpTransport::bind(loopback()).expect("bind"))
            .collect();
        let addrs: Vec<_> = builders.iter().map(UdpBuilder::local_addr).collect();
        let world: Vec<UdpTransport> = std::thread::scope(|s| {
            let joins: Vec<_> = builders
                .into_iter()
                .enumerate()
                .map(|(rank, b)| {
                    let (addrs, clock) = (addrs.clone(), clock.clone());
                    let timeout = Duration::from_secs(5);
                    s.spawn(move || b.connect_with_clock(rank, addrs, epoch, timeout, clock))
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("join thread").expect("join"))
                .collect()
        });
        for t in &world {
            assert!(t.try_recv().is_none());
        }
        (world, clock)
    }

    /// The next `k` envelopes `t` receives, waiting for each.
    fn recv_ids(t: &UdpTransport, k: usize) -> Vec<u32> {
        (0..k)
            .map(|_| {
                t.recv_timeout(Duration::from_secs(2))
                    .expect("an envelope within 2 s")
                    .handler
                    .0
            })
            .collect()
    }

    /// Receive syscalls made so far, with or without a datagram.
    fn looks(t: &UdpTransport) -> u64 {
        let s = t.stats();
        s.recv_calls + s.recv_empty
    }

    /// Every field holds a value no other field holds, so a decoder that
    /// swaps two fields fails here.
    #[test]
    fn header_roundtrip() {
        let h = Header {
            magic: MAGIC,
            version: PROTO_VERSION,
            kind: KIND_DATA,
            src: 7,
            epoch: 0xDEAD_BEEF,
        };
        let bytes = encode_header(WireWriter::new(), &h).finish();
        assert_eq!(bytes.len(), HEADER_LEN);
        let mut r = WireReader::new(bytes);
        assert_eq!(decode_header(&mut r), Some(h));
        assert_eq!(r.remaining(), 0);
    }

    /// The bytes each writer puts on the wire, field by field. A roundtrip
    /// passes when both ends change together; this fails, so a layout
    /// change comes with a `PROTO_VERSION` bump.
    #[test]
    fn wire_layout_is_pinned() {
        let header = Header {
            magic: MAGIC,
            version: PROTO_VERSION,
            kind: KIND_DATA,
            src: 7,
            epoch: 0x0102_0304_0506_0708,
        };
        let mut want = Vec::new();
        want.extend_from_slice(b"PRMA");
        want.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        want.extend_from_slice(&[2, 0, 0, 0, 7, 0, 0, 0]);
        want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        let got = encode_header(WireWriter::new(), &header).finish();
        assert_eq!(
            &got[..],
            &want[..],
            "header layout changed: bump PROTO_VERSION"
        );
        let got = encode_dst(WireWriter::new(), 5).finish();
        assert_eq!(
            &got[..],
            &[5, 0, 0, 0],
            "DATA layout changed: bump PROTO_VERSION"
        );
        let record = Envelope {
            src: 2,
            dst: 5,
            handler: HandlerId(0x0A0B),
            tag: Tag::System,
            payload: Bytes::from_static(b"xy"),
        };
        let got = encode_record(WireWriter::new(), &record).finish();
        assert_eq!(
            &got[..],
            &[0x0B, 0x0A, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, b'x', b'y'],
            "record layout changed: bump PROTO_VERSION"
        );
    }

    /// A DATA datagram: the header, the destination once, then each record
    /// with its own handler, tag and payload, in order.
    #[test]
    fn dgram_roundtrip() {
        let first = Envelope {
            src: 2,
            dst: 5,
            handler: HandlerId(0xFEED),
            tag: Tag::System,
            payload: Bytes::from_static(b"hello wire"),
        };
        let envs = [
            first.clone(),
            Envelope {
                handler: HandlerId(7),
                tag: Tag::App,
                payload: Bytes::new(),
                ..first
            },
        ];
        let bytes = envs
            .iter()
            .fold(open_dgram(2, 5, 42, DGRAM_CAP), encode_record)
            .finish();
        let body = 10 + 2 * RECORD_OVERHEAD;
        assert_eq!(bytes.len(), HEADER_LEN + DST_LEN + body);
        let mut r = WireReader::new(bytes);
        let h = decode_header(&mut r).expect("header");
        assert_eq!(
            (h.magic, h.version, h.kind, h.src, h.epoch),
            (MAGIC, PROTO_VERSION, KIND_DATA, 2, 42)
        );
        assert_eq!(decode_dst(&mut r), Some(5));
        let mut out = VecDeque::new();
        assert!(unpack_records(&mut r, 2, 5, &mut out));
        assert_eq!(
            out.iter().map(key).collect::<Vec<_>>(),
            envs.iter().map(key).collect::<Vec<_>>()
        );
    }

    /// Both ways over real sockets: a record leaves when its sender's slice
    /// ends, or at its sender's flush, App or System alike.
    #[test]
    fn loopback_pair_delivers_both_ways_at_the_slice_or_a_flush() {
        let (w, clock) = stepped(2, 7);
        let (t0, t1) = (&w[0], &w[1]);
        t0.send(env_to(0, 1, 11));
        clock.advance(WIRE_SLICE);
        assert!(t0.try_recv().is_none()); // the slice is over: it leaves
        let got = t1.recv_timeout(Duration::from_secs(2)).expect("0→1");
        assert_eq!(
            (got.src, got.dst, got.handler, got.tag),
            (0, 1, HandlerId(11), Tag::App)
        );
        t1.send(sys_to(1, 0, 22));
        assert_eq!(t1.stats().sent, 0, "a System record waits like any other");
        t1.flush();
        let got = t0.recv_timeout(Duration::from_secs(2)).expect("1→0");
        assert_eq!(
            (got.src, got.dst, got.handler, got.tag),
            (1, 0, HandlerId(22), Tag::System)
        );
        let (s0, s1) = (t0.stats(), t1.stats());
        assert_eq!((s0.sent, s0.received, s1.sent, s1.received), (1, 1, 1, 1));
    }

    /// Every datagram open or closed when the slice ends leaves in one
    /// `sendmmsg`, to however many peers, in send order per peer.
    #[test]
    fn staged_sends_flush_as_one_batch() {
        let (w, clock) = stepped(3, 8);
        // Two 1000-byte records never share a datagram: rank 1 gets three,
        // rank 2 one holding both of its records.
        let big = |n: u32| Envelope {
            payload: Bytes::from(vec![n as u8; 1000]),
            ..env_to(0, 1, n)
        };
        for e in [big(0), env_to(0, 2, 10), big(1), env_to(0, 2, 11), big(2)] {
            w[0].send(e);
        }
        assert_eq!(
            w[0].stats().send_calls,
            0,
            "nothing leaves inside the slice"
        );
        clock.advance(WIRE_SLICE);
        assert!(w[0].try_recv().is_none());
        let s = w[0].stats();
        assert_eq!((s.send_calls, s.sent, s.records_sent), (1, 4, 5));
        assert_eq!(recv_ids(&w[1], 3), [0, 1, 2]);
        assert_eq!(recv_ids(&w[2], 2), [10, 11]);
    }

    /// (a) K App records to one peer inside a slice are one datagram:
    /// nothing leaves before the slice ends, all K leave at the first
    /// receive call at or after its end, in order.
    #[test]
    fn app_records_inside_a_slice_leave_as_one_datagram_when_it_ends() {
        const K: u32 = 8;
        let (w, clock) = stepped(2, 15);
        for i in 0..K {
            w[0].send(env_to(0, 1, i));
        }
        clock.advance(WIRE_SLICE - Duration::from_nanos(1));
        assert!(w[0].try_recv().is_none());
        assert_eq!(w[0].stats().sent, 0, "a nanosecond early");
        clock.advance(Duration::from_nanos(1));
        assert!(w[0].try_recv().is_none());
        let s = w[0].stats();
        assert_eq!((s.send_calls, s.sent, s.records_sent), (1, 1, K as u64));
        assert_eq!(recv_ids(&w[1], K as usize), (0..K).collect::<Vec<_>>());
        let s = w[1].stats();
        assert_eq!((s.received, s.records_received), (1, K as u64));
    }

    /// (b) A System record packs like an App record, behind the App records
    /// sent before it to the same peer; nothing leaves until a flush, which
    /// sends every peer's datagram in one `sendmmsg` and reads nothing.
    #[test]
    fn a_system_send_waits_for_the_flush_which_sends_every_peer_at_once() {
        let (w, _clock) = stepped(3, 16);
        w[0].send(env_to(0, 2, 7));
        w[0].send(env_to(0, 1, 1));
        w[0].send(sys_to(0, 1, 2));
        assert_eq!(w[0].stats().send_calls, 0, "nothing leaves inside `send`");
        let before = looks(&w[0]);
        w[0].flush();
        let s = w[0].stats();
        assert_eq!((s.send_calls, s.sent, s.records_sent), (1, 2, 3));
        assert_eq!(looks(&w[0]), before, "a flush reads nothing");
        assert_eq!(recv_ids(&w[1], 2), [1, 2]);
        assert_eq!(w[1].stats().received, 1, "one datagram");
        assert_eq!(recv_ids(&w[2], 1), [7]);
        w[0].flush();
        assert_eq!(
            w[0].stats().send_calls,
            1,
            "an empty flush makes no syscall"
        );
    }

    /// A polling pass that sends `k` System records (grants, NACKs,
    /// statuses, directory replies) and one MOL frame to one peer, with no
    /// slice ending inside it, makes exactly one `sendmmsg` at its flush:
    /// one datagram of `k + 1` records, in send order.
    #[test]
    fn a_pass_of_system_records_and_a_frame_leaves_in_one_sendmmsg() {
        const K: u32 = 5;
        let (w, _clock) = stepped(2, 21);
        let before = w[0].stats();
        for i in 0..K {
            w[0].send(sys_to(0, 1, i));
        }
        let frame = Envelope {
            payload: Bytes::from(vec![9; 200]),
            ..env_to(0, 1, K)
        };
        w[0].send(frame);
        w[0].flush();
        let after = w[0].stats();
        assert_eq!(after.send_calls - before.send_calls, 1);
        assert_eq!(after.sent - before.sent, 1);
        assert_eq!(after.records_sent - before.records_sent, K as u64 + 1);
        assert_eq!(recv_ids(&w[1], K as usize + 1), (0..=K).collect::<Vec<_>>());
    }

    /// A flush needs no later receive call on its sender: the peer's
    /// `recv_timeout` has both records, the App one sent first ahead of the
    /// System one, while the sender makes no further call at all.
    #[test]
    fn a_flush_needs_no_later_receive_call() {
        let (t0, t1) = pair(17);
        t0.send(env_to(0, 1, 1));
        t0.send(sys_to(0, 1, 2));
        t0.flush();
        let got: Vec<(u32, Tag)> = (0..2)
            .map(|_| {
                let e = t1.recv_timeout(Duration::from_secs(2)).expect("delivered");
                (e.handler.0, e.tag)
            })
            .collect();
        assert_eq!(got, [(1, Tag::App), (2, Tag::System)]);
    }

    /// (c) Receive calls inside a slice make no syscall, even with data
    /// waiting on the socket; the first one after the slice makes exactly
    /// one.
    #[test]
    fn receive_calls_inside_a_slice_make_no_syscall() {
        let (w, clock) = stepped(2, 18);
        w[0].send(sys_to(0, 1, 3));
        w[0].flush(); // on rank 1's socket when this returns
        let before = looks(&w[1]);
        let step = WIRE_SLICE / 100;
        for _ in 0..99 {
            clock.advance(step);
            assert!(w[1].try_recv().is_none());
        }
        assert_eq!(looks(&w[1]), before, "no syscall inside the slice");
        clock.advance(step);
        assert_eq!(w[1].try_recv().map(|e| e.handler.0), Some(3));
        assert_eq!(looks(&w[1]), before + 1, "one drain at the slice's end");
        assert!(w[1].try_recv().is_none());
        assert_eq!(looks(&w[1]), before + 1, "the burst's `None` is free");
    }

    /// (d) `recv_timeout` flushes and reads before it blocks, whatever the
    /// slice says.
    #[test]
    fn recv_timeout_services_the_socket_whatever_the_slice_says() {
        let (w, _clock) = stepped(2, 19);
        w[0].send(env_to(0, 1, 5));
        // The clock stands still inside the slice both ranks just started.
        let before = looks(&w[0]);
        assert!(w[0].recv_timeout(Duration::from_millis(1)).is_none());
        assert_eq!(w[0].stats().sent, 1, "its open datagram left first");
        assert_eq!(looks(&w[0]), before + 1, "and it read the socket");
        assert_eq!(recv_ids(&w[1], 1), [5]);
    }

    /// (e) Records that would take a datagram past [`MTU_PAYLOAD`] close it
    /// and open the next, in order; a record bigger than that travels
    /// alone.
    #[test]
    fn records_past_the_mtu_cap_split_and_a_big_one_travels_alone() {
        let (w, clock) = stepped(2, 20);
        let sized = |n: u32, len: usize| Envelope {
            payload: Bytes::from(vec![n as u8; len]),
            ..env_to(0, 1, n)
        };
        let half = MTU_PAYLOAD / 2 - RECORD_OVERHEAD; // two fill a datagram
        let sent = [
            sized(0, half),
            sized(1, half),
            sized(2, 1),           // does not fit: a second datagram
            sized(3, MTU_PAYLOAD), // alone
            sized(4, 1),           // a fourth datagram, open until the slice ends
        ];
        for e in &sent {
            w[0].send(e.clone());
        }
        clock.advance(WIRE_SLICE);
        assert!(w[0].try_recv().is_none());
        let s = w[0].stats();
        assert_eq!((s.send_calls, s.sent, s.records_sent), (1, 4, 5));
        let got: Vec<_> = (0..sent.len())
            .map(|_| {
                w[1].recv_timeout(Duration::from_secs(2))
                    .expect("delivered")
            })
            .collect();
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            sent.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(w[1].stats().received, 4);
    }

    #[test]
    fn oversize_payload_is_dropped_not_sent() {
        let (t0, t1) = pair(10);
        let huge = Envelope {
            src: 0,
            dst: 1,
            handler: HandlerId(1),
            tag: Tag::App,
            payload: Bytes::from(vec![0u8; MAX_DGRAM]),
        };
        t0.send(huge);
        assert_eq!(t0.stats().oversize, 1);
        assert!(t1.recv_timeout(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn stray_and_stale_datagrams_are_counted_and_dropped() {
        let (t0, t1) = pair(11);
        let t1_addr = t1.local_addr().expect("t1 addr");
        let stray = UdpSocket::bind("127.0.0.1:0").expect("stray socket");
        // Runt (shorter than the header).
        stray.send_to(&[1, 2, 3], t1_addr).expect("send runt");
        // Wrong magic.
        let bad_magic = encode_header(
            WireWriter::new(),
            &Header {
                magic: 0x1234_5678,
                version: PROTO_VERSION,
                kind: KIND_DATA,
                src: 0,
                epoch: 11,
            },
        )
        .finish();
        stray.send_to(&bad_magic, t1_addr).expect("send bad magic");
        // Wrong version.
        let bad_version = control_dgram(KIND_DATA, PROTO_VERSION + 9, 0, 11);
        stray
            .send_to(&bad_version, t1_addr)
            .expect("send bad version");
        // Wrong epoch (straggler from a previous launch).
        let stale = control_dgram(KIND_DATA, PROTO_VERSION, 0, 999);
        stray.send_to(&stale, t1_addr).expect("send stale epoch");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            assert!(t1.try_recv().is_none(), "nothing bad may be delivered");
            let s = t1.stats();
            if s.runts >= 1 && s.bad_magic >= 1 && s.bad_version >= 1 && s.bad_epoch >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "counters never arrived: {s:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(t0);
    }

    #[test]
    fn handshake_rejects_wrong_protocol_version() {
        let b = UdpTransport::bind(loopback()).expect("bind");
        let imposter = UdpSocket::bind("127.0.0.1:0").expect("imposter");
        let my_addr = b.local_addr();
        let peer_addr = imposter.local_addr().expect("imposter addr");
        // An incompatible build announces itself with a newer version.
        let hello = control_dgram(KIND_HELLO, PROTO_VERSION + 1, 1, 77);
        imposter.send_to(&hello, my_addr).expect("send hello");
        let err = b
            .connect(0, vec![my_addr, peer_addr], 77, Duration::from_secs(2))
            .err()
            .expect("must reject");
        match err {
            UdpError::VersionMismatch { peer, got } => {
                assert_eq!(peer, 1);
                assert_eq!(got, PROTO_VERSION + 1);
            }
            other => panic!("wrong rejection: {other}"),
        }
    }

    #[test]
    fn handshake_rejects_wrong_epoch() {
        let b = UdpTransport::bind(loopback()).expect("bind");
        let straggler = UdpSocket::bind("127.0.0.1:0").expect("straggler");
        let my_addr = b.local_addr();
        let peer_addr = straggler.local_addr().expect("straggler addr");
        // A process from a previous launch (different epoch) knocks.
        let hello = control_dgram(KIND_HELLO, PROTO_VERSION, 1, 1000);
        straggler.send_to(&hello, my_addr).expect("send hello");
        let err = b
            .connect(0, vec![my_addr, peer_addr], 2000, Duration::from_secs(2))
            .err()
            .expect("must reject");
        match err {
            UdpError::EpochMismatch { peer, got } => {
                assert_eq!(peer, 1);
                assert_eq!(got, 1000);
            }
            other => panic!("wrong rejection: {other}"),
        }
    }

    #[test]
    fn handshake_times_out_on_silent_peer() {
        let b = UdpTransport::bind(loopback()).expect("bind");
        let silent = UdpSocket::bind("127.0.0.1:0").expect("silent peer");
        let my_addr = b.local_addr();
        let peer_addr = silent.local_addr().expect("silent addr");
        let err = b
            .connect(0, vec![my_addr, peer_addr], 5, Duration::from_millis(100))
            .err()
            .expect("must time out");
        match err {
            UdpError::HandshakeTimeout { missing } => assert_eq!(missing, vec![1]),
            other => panic!("wrong failure: {other}"),
        }
    }

    /// The full production stack over a real socket: reliable over chaos
    /// over UDP, seeded loss, exactly-once in-order delivery.
    #[test]
    fn reliable_chaos_over_udp_delivers_exactly_once() {
        let (t0, t1) = pair(12);
        let handle = ChaosHandle::new();
        let cfg = ChaosConfig::adversarial(0xFACE, 0.20);
        let retry = RetryConfig {
            retry_after: Duration::from_millis(1),
            max_backoff_shift: 3,
        };
        let stack = |t| {
            let chaos = ChaosTransport::new(t, cfg, handle.clone());
            ReliableTransport::with_retry(chaos, retry, Clock::monotonic())
        };
        let (a, b) = (stack(t0), stack(t1));
        for i in 0..50 {
            a.send(env_to(0, 1, i));
        }
        // Drive the sender: flush, ACK processing, retransmits.
        let sender = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !a.all_acked() && Instant::now() < deadline {
                let _ = a.recv_timeout(Duration::from_millis(2));
            }
            a
        });
        // The receiver stays until the sender has heard every ACK: the last
        // one is owed, not sent, when the last frame is handed up (what
        // `prema-launch`'s drain window is for).
        let mut got = Vec::new();
        while !sender.is_finished() {
            if let Some(e) = b.recv_timeout(Duration::from_millis(5)) {
                got.push(e.handler.0);
            }
        }
        let a = sender.join().expect("sender thread");
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "exactly once, in order");
        assert!(a.all_acked(), "every frame acknowledged over the socket");
    }

    /// A burst of K frames is one datagram and one drain: the K frames a
    /// reliable sender wraps inside a slice leave packed together, and the
    /// receiver hands all K up from a single look at its socket — nothing
    /// for the `None` that ends the pump, in this layer or the one above.
    #[test]
    fn a_burst_costs_one_socket_drain() {
        const K: u32 = 8;
        let (t0, t1) = pair(13);
        let (a, b) = (ReliableTransport::new(t0), ReliableTransport::new(t1));
        for i in 0..K {
            a.send(env_to(0, 1, i));
        }
        // The sender's first receive call services its socket; loopback has
        // queued the datagram on `b`'s socket when this returns.
        assert!(a.try_recv().is_none());
        let s = a.inner.stats();
        assert_eq!((s.sent, s.records_sent), (1, K as u64));
        let before = b.inner.stats();
        let got: Vec<u32> = std::iter::from_fn(|| b.try_recv())
            .map(|e| e.handler.0)
            .collect();
        assert_eq!(got, (0..K).collect::<Vec<_>>());
        let after = b.inner.stats();
        let looks = (after.recv_calls - before.recv_calls) + (after.recv_empty - before.recv_empty);
        assert_eq!(looks, 1, "socket drains for one pump");
        assert_eq!(after.received - before.received, 1);
        assert_eq!(after.records_received - before.records_received, K as u64);
    }

    /// The regression guard for the reliable wire's two old habits, on real
    /// sockets and the monotonic clock: a retry timer that counted polls
    /// (HEAD retransmitted 11% of what it delivered on a loopback that loses
    /// nothing) and an ACK datagram per frame (107%). Two threads stream
    /// 20 000 frames each way, each at most a window ahead of what it has
    /// heard so the socket buffers cannot overflow.
    #[test]
    fn lossless_loopback_barely_retransmits() {
        const N: u32 = 20_000;
        const WINDOW: u32 = 64;
        let (t0, t1) = pair(14);
        let stream = |t: UdpTransport| {
            move || {
                let t = ReliableTransport::new(t);
                let (me, peer) = (t.rank(), 1 - t.rank());
                let (mut sent, mut heard) = (0, 0);
                let deadline = Instant::now() + Duration::from_secs(60);
                // `sent < N` too: one pump can bring the peer's whole tail
                // and the ACK of everything sent so far, with up to a
                // window of this side's frames still unsent.
                while (sent < N || heard < N || !t.all_acked()) && Instant::now() < deadline {
                    while sent < N && sent < heard + WINDOW {
                        t.send(env_to(me, peer, sent));
                        sent += 1;
                    }
                    while let Some(e) = t.try_recv() {
                        assert_eq!(e.handler.0, heard, "exactly once, in order");
                        heard += 1;
                    }
                }
                assert_eq!((sent, heard), (N, N));
                assert!(t.all_acked());
                // Stay for the peer's last frames: it may still be owed
                // the ACK that lets it leave.
                let linger = Instant::now() + Duration::from_millis(50);
                while Instant::now() < linger {
                    assert!(t.try_recv().is_none());
                }
                t.stats()
            }
        };
        let h = std::thread::spawn(stream(t1));
        let s0 = stream(t0)();
        let s1 = h.join().expect("rank 1 thread");
        for s in [s0, s1] {
            assert_eq!(s.delivered, N as u64);
            assert!(s.retries * 100 <= s.delivered, "retransmissions: {s:?}");
            assert!(s.acks_sent * 20 <= s.delivered, "standalone ACKs: {s:?}");
        }
    }

    /// Rank 1 of two, its socket bound but never joined: what
    /// `ingest_dgram` makes of hand-built datagrams.
    fn lone_rank(epoch: u64) -> UdpTransport {
        let socket = UdpSocket::bind(loopback()).expect("bind");
        let me = socket.local_addr().expect("bound addr");
        UdpTransport::from_parts(socket, 1, vec![me, me], epoch, Clock::manual())
            .expect("an IPv4 world")
    }

    /// A DATA datagram with the right magic, version and epoch but a
    /// source rank outside the machine is counted as malformed and delivers
    /// nothing, though its records are whole and addressed to this rank.
    #[test]
    fn a_source_outside_the_machine_is_malformed_and_delivers_nothing() {
        let t = lone_rank(5);
        let forged = t.nprocs() + 5;
        let dgram =
            encode_record(open_dgram(forged, 1, 5, DGRAM_CAP), &env_to(forged, 1, 7)).finish();
        let from: SocketAddrV4 = "127.0.0.1:9".parse().expect("literal address");
        let mut ready = VecDeque::new();
        t.ingest_dgram(dgram, from, &mut ready);
        assert!(ready.is_empty(), "a forged source was delivered: {ready:?}");
        let s = t.stats();
        assert_eq!((s.malformed, s.received, s.records_received), (1, 0, 0));
        // The same record from a rank of the machine goes through.
        let real = encode_record(open_dgram(0, 1, 5, DGRAM_CAP), &env_to(0, 1, 7)).finish();
        t.ingest_dgram(real, from, &mut ready);
        assert_eq!(ready.len(), 1);
        assert_eq!(t.stats().malformed, 1);
    }

    /// The largest payload `send` accepts: its record fills a datagram of
    /// [`MAX_DGRAM`].
    const LARGEST: usize = MAX_DGRAM - HEADER_LEN - DST_LEN - RECORD_OVERHEAD;

    /// `IO_BATCH + 2` datagrams, one System record each from rank 0 to
    /// rank 1: first a record of [`LARGEST`], then payloads of 1400 down to
    /// 1400 − 16 × 83 bytes, then as many of 0 to 17 bytes, which land in
    /// windows that held long ones whichever receive path reads them. Every
    /// byte is a function of its record and position, so a stale byte from
    /// another datagram cannot pass for a right one. Under 120 KiB in all,
    /// well inside a loopback socket's default receive buffer.
    fn long_then_short(epoch: u64) -> (Vec<Bytes>, Vec<Envelope>) {
        let n = IO_BATCH + 2;
        let long = std::iter::once(LARGEST).chain((1..n).map(|i| 1400 - (i - 1) * 83));
        long.chain(0..n)
            .zip(0u32..)
            .map(|(len, id)| {
                let payload: Vec<u8> = (0..len)
                    .map(|j| (j * 7 + id as usize * 13 + 1) as u8)
                    .collect();
                let env = Envelope {
                    payload: Bytes::from(payload),
                    ..sys_to(0, 1, id)
                };
                let cap = HEADER_LEN + DST_LEN + RECORD_OVERHEAD + len;
                (
                    encode_record(open_dgram(0, 1, epoch, cap), &env).finish(),
                    env,
                )
            })
            .unzip()
    }

    /// Rank 1 of two, joined on `clock` against a plain socket standing in
    /// for rank 0, which sends `before_join` and then its WELCOME before
    /// rank 1 starts its handshake.
    fn joined_by_hand(
        epoch: u64,
        before_join: &[Bytes],
        clock: Clock,
    ) -> (UdpSocket, UdpTransport) {
        let b = UdpTransport::bind(loopback()).expect("bind");
        let peer = UdpSocket::bind(loopback()).expect("stand-in for rank 0");
        let me = b.local_addr();
        for d in before_join {
            peer.send_to(d, me).expect("send before the join");
        }
        let welcome = control_dgram(KIND_WELCOME, PROTO_VERSION, 0, epoch);
        peer.send_to(&welcome, me).expect("send WELCOME");
        let addrs = vec![peer.local_addr().expect("peer addr"), me];
        let t = b
            .connect_with_clock(1, addrs, epoch, Duration::from_secs(2), clock)
            .expect("join");
        (peer, t)
    }

    /// Byte-exact delivery, in order, with nothing counted malformed.
    fn assert_exact(t: &UdpTransport, got: &[Envelope], sent: &[Envelope]) {
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(sent) {
            assert_eq!(key(g), key(s), "record {} arrived changed", s.handler.0);
        }
        let st = t.stats();
        assert_eq!(
            (st.received, st.malformed, st.runts),
            (sent.len() as u64, 0, 0)
        );
    }

    /// One drain takes more than [`IO_BATCH`] datagrams of mixed sizes,
    /// the largest `send` accepts among them; the next drain's short
    /// datagrams land in windows that held longer ones. Each window is read
    /// only up to the length the kernel wrote, so every record is exact.
    #[test]
    fn a_drain_reads_each_window_only_as_far_as_the_kernel_wrote() {
        let clock = Clock::manual();
        let (peer, t) = joined_by_hand(31, &[], clock.clone());
        let me = t.local_addr().expect("bound addr");
        let (dgrams, sent) = long_then_short(31);
        let (long, short) = dgrams.split_at(IO_BATCH + 2);
        let mut got = Vec::new();
        for round in [long, short] {
            for d in round {
                peer.send_to(d, me).expect("send");
            }
            got.extend(t.try_recv());
            assert_eq!(
                t.rx.borrow().ready.len(),
                round.len() - 1,
                "one drain took all"
            );
            got.extend(std::iter::from_fn(|| t.try_recv()));
            clock.advance(WIRE_SLICE);
        }
        assert_exact(&t, &got, &sent);
    }

    /// The same datagrams, all queued before the join, are read by the
    /// handshake's blocking receives and delivered exactly afterwards.
    #[test]
    fn the_handshake_reads_each_window_only_as_far_as_the_kernel_wrote() {
        let (dgrams, sent) = long_then_short(32);
        let (_peer, t) = joined_by_hand(32, &dgrams, Clock::manual());
        assert_eq!(
            t.stats().received,
            sent.len() as u64,
            "all read while joining"
        );
        let got: Vec<Envelope> = std::iter::from_fn(|| t.try_recv()).collect();
        assert_exact(&t, &got, &sent);
    }

    /// The same datagrams, sent while `recv_timeout` blocks, are read by its
    /// blocking receives and delivered exactly.
    #[test]
    fn recv_timeout_reads_each_window_only_as_far_as_the_kernel_wrote() {
        let (peer, t) = joined_by_hand(33, &[], Clock::manual());
        let me = t.local_addr().expect("bound addr");
        let (dgrams, sent) = long_then_short(33);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            for d in &dgrams {
                peer.send_to(d, me).expect("send");
            }
        });
        let got: Vec<Envelope> = (0..sent.len())
            .map(|_| t.recv_timeout(Duration::from_secs(2)).expect("delivered"))
            .collect();
        sender.join().expect("sender thread");
        assert_exact(&t, &got, &sent);
    }

    proptest! {
        /// Arbitrary bytes decode to `Some` or `None`: no panic, and
        /// records whose payloads are slices of what came in, so no more
        /// of them than the bytes can hold.
        #[test]
        fn decoders_survive_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..160)) {
            let len = raw.len();
            let mut r = WireReader::new(Bytes::from(raw));
            let header = decode_header(&mut r);
            prop_assert_eq!(header.is_some(), len >= HEADER_LEN);
            if let Some(dst) = header.and_then(|_| decode_dst(&mut r)) {
                let mut out = VecDeque::new();
                let _ = unpack_records(&mut r, 0, dst, &mut out);
                let carried: usize = out.iter().map(|e| RECORD_OVERHEAD + e.payload.len()).sum();
                prop_assert!(HEADER_LEN + DST_LEN + carried <= len);
            }
        }

        /// K records packed into a datagram come back out in order; cut
        /// the datagram inside its last record and the K − 1 before it are
        /// still delivered, and the datagram counts as malformed once.
        #[test]
        fn packed_records_round_trip_and_a_truncated_tail_keeps_its_prefix(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            cut in any::<usize>(),
        ) {
            let sent: Vec<Envelope> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, p)| Envelope {
                    tag: if i % 2 == 0 { Tag::App } else { Tag::System },
                    payload: Bytes::from(p),
                    ..env_to(0, 1, i as u32)
                })
                .collect();
            let k = sent.len();
            let whole = sent.iter().fold(open_dgram(0, 1, 9, DGRAM_CAP), encode_record).finish();
            let last = RECORD_OVERHEAD + sent[k - 1].payload.len();
            let short = whole.slice(0..whole.len() - 1 - cut % (last - 1));
            let t = lone_rank(9);
            let from: SocketAddrV4 = "127.0.0.1:9".parse().expect("literal address");
            let mut ready = VecDeque::new();
            t.ingest_dgram(whole, from, &mut ready);
            prop_assert_eq!(ready.iter().map(key).collect::<Vec<_>>(), sent.iter().map(key).collect::<Vec<_>>());
            let s = t.stats();
            prop_assert_eq!((s.received, s.records_received, s.malformed), (1, k as u64, 0));
            ready.clear();
            t.ingest_dgram(short, from, &mut ready);
            prop_assert_eq!(ready.iter().map(key).collect::<Vec<_>>(), sent[..k - 1].iter().map(key).collect::<Vec<_>>());
            let s = t.stats();
            prop_assert_eq!((s.received, s.records_received, s.malformed), (2, 2 * k as u64 - 1, 1));
        }
    }
}
