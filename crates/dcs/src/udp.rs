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
//! * [`crate::batch`] frames remain the send unit — a coalesced frame is one
//!   envelope, hence one datagram;
//! * [`crate::reliable`] supplies ack/retry over the genuinely lossy socket
//!   (UDP drops under load even on loopback);
//! * [`crate::chaos`] wraps the socket to make test runs deterministic at a
//!   *seeded* loss rate regardless of what the kernel does.
//!
//! # Wire format
//!
//! Every datagram starts with a fixed 24-byte little-endian header
//! (`encode_header`/`decode_header`, checked for drift by `cargo xtask
//! analyze`): magic `"PRMA"`, protocol version, frame kind (HELLO /
//! WELCOME / DATA), source rank, epoch. DATA frames append the destination
//! rank, handler id, tag, and a length-prefixed payload. The epoch ties a
//! datagram to one launch (the launcher stamps its PID), so a straggler
//! process from a previous run cannot corrupt a new one — its frames fail
//! the epoch check and are counted, traced, and dropped.
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
//! # Batched I/O
//!
//! On x86-64 Linux, sends and receives go through raw `sendmmsg` /
//! `recvmmsg` syscalls (no libc, the `prema::affinity` idiom): sends stage
//! per-datagram buffers drawn from [`crate::pool`] and flush as one syscall
//! per batch; receives drain up to a batch of datagrams per syscall into
//! persistent scratch buffers. Elsewhere a portable `send_to`/`recv_from`
//! fallback keeps the module compiling. [`MTU_PAYLOAD`] is the recommended
//! `PREMA_BATCH_BYTES` ceiling so coalesced frames stay within one ethernet
//! MTU; datagrams up to [`MAX_DGRAM`] work on loopback.

use crate::envelope::{Envelope, HandlerId, Rank, Tag};
use crate::pool;
use crate::transport::{saturating_deadline, Transport};
use crate::wire::{WireReader, WireWriter};
use bytes::{BufMut, Bytes};
use prema_trace::{TraceEvent, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

/// `"PRMA"` in little-endian — the first four bytes of every datagram.
const MAGIC: u32 = 0x414D_5250;
/// Wire protocol version; bumped on any header or DATA layout change, and
/// when the reliable layer's frames (every DATA payload `prema-launch`
/// sends) change theirs: 2 = data frames carry the reverse direction's ACK.
pub const PROTO_VERSION: u32 = 2;

/// Frame kinds carried in the header.
const KIND_HELLO: u32 = 0;
const KIND_WELCOME: u32 = 1;
const KIND_DATA: u32 = 2;

/// Fixed header length: magic + version + kind + src (u32 each) + epoch.
const HEADER_LEN: usize = 24;
/// DATA overhead beyond the header: dst + handler + tag + payload length
/// prefix, u32 each.
const DATA_OVERHEAD: usize = 16;

/// Largest UDP payload that fits a single IPv4 datagram (65535 − 20 IP −
/// 8 UDP). Loopback carries these whole.
pub const MAX_DGRAM: usize = 65_507;
/// Recommended `max_bytes` for [`crate::BatchConfig`] above this transport:
/// one coalesced frame stays inside a 1500-byte ethernet MTU after the UDP,
/// IP, and PREMA headers.
pub const MTU_PAYLOAD: usize = 1408;

/// Datagrams per `sendmmsg`/`recvmmsg` syscall.
const IO_BATCH: usize = 16;
/// Handshake HELLO re-send period.
const HELLO_INTERVAL: Duration = Duration::from_millis(2);
/// Longest single blocking wait inside `recv_timeout`; the loop re-checks
/// its deadline (and the cached socket timeout stays coarse enough to be
/// reused) every slice.
const BLOCK_SLICE: Duration = Duration::from_millis(100);

/// The parsed fixed header of any datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Header {
    magic: u32,
    version: u32,
    kind: u32,
    src: u32,
    epoch: u64,
}

// Wire schema, kept as named encode/decode pairs so `cargo xtask analyze`
// checks the field sequences against each other (see `wire_pairing`).

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

/// Build a complete DATA datagram: header, then the DATA fields.
///
/// Pooled: one buffer per datagram, recycled after the send syscall.
fn data_dgram(env: &Envelope, epoch: u64) -> Bytes {
    let w = encode_header(
        WireWriter::pooled(HEADER_LEN + DATA_OVERHEAD + env.payload.len()),
        &Header {
            magic: MAGIC,
            version: PROTO_VERSION,
            kind: KIND_DATA,
            src: env.src as u32,
            epoch,
        },
    );
    encode_dgram(w, env).finish()
}

/// Append the DATA fields following the header: dst, handler, tag, payload.
fn encode_dgram(w: WireWriter, env: &Envelope) -> WireWriter {
    w.u32(env.dst as u32)
        .u32(env.handler.0)
        .u32(match env.tag {
            Tag::App => 0,
            Tag::System => 1,
        })
        .bytes(&env.payload)
}

/// Decode the DATA fields following an already-read header.
fn decode_dgram(r: &mut WireReader, h: &Header) -> Option<Envelope> {
    let dst = r.try_u32()?;
    let handler = HandlerId(r.try_u32()?);
    let tag = match r.try_u32()? {
        0 => Tag::App,
        _ => Tag::System,
    };
    let payload = r.try_bytes()?;
    Some(Envelope {
        src: h.src as Rank,
        dst: dst as Rank,
        handler,
        tag,
        payload,
    })
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
    /// DATA datagrams delivered up the stack.
    pub received: u64,
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
    /// DATA frames whose header fields parse but body does not.
    pub malformed: u64,
    /// DATA frames addressed to a different rank.
    pub misrouted: u64,
    /// Sends refused because the encoded datagram exceeds [`MAX_DGRAM`].
    pub oversize: u64,
    /// Datagrams abandoned after a send-side socket error.
    pub send_errors: u64,
    /// HELLOs answered with WELCOME (handshake and steady state).
    pub hellos_answered: u64,
}

/// Raw batched-I/O syscalls for x86-64 Linux — no libc, the
/// `prema::affinity` idiom. Struct layouts match the kernel ABI for this
/// target exactly (x86-64 `sockaddr_in` / `iovec` / `msghdr` / `mmsghdr`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::net::SocketAddrV4;

    pub const MSG_DONTWAIT: i64 = 0x40;
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

    /// `recvmmsg(fd, hdrs, vlen, MSG_DONTWAIT, NULL)`; returns datagrams
    /// received or `-errno` (notably `-EAGAIN` when the queue is empty).
    ///
    /// # Safety
    /// `hdrs[..vlen]` must point at valid scaffolding whose iovec buffers
    /// are writable for the duration of the call.
    pub unsafe fn recvmmsg(fd: i32, hdrs: *mut MMsgHdr, vlen: u32) -> i64 {
        let ret: i64;
        // SAFETY: as for `sendmmsg`; the kernel writes through the iovec
        // and sockaddr pointers, all owned by the caller's scratch arrays.
        std::arch::asm!(
            "syscall",
            inlateout("rax") 299i64 => ret, // __NR_recvmmsg
            in("rdi") fd as i64,
            in("rsi") hdrs,
            in("rdx") vlen as i64,
            in("r10") MSG_DONTWAIT,
            in("r8") 0i64, // no per-call timeout struct
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
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

/// Send-side state: datagrams staged (destination rank + encoded bytes)
/// until the next flush.
struct TxState {
    staged: Vec<(Rank, Bytes)>,
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sys: sys::Scratch,
}

/// Receive-side state: decoded envelopes ready for delivery plus the
/// persistent datagram scratch buffers the kernel fills.
struct RxState {
    ready: VecDeque<Envelope>,
    /// The last drain made something ready and no `None` has ended that
    /// burst yet (see `try_recv`).
    in_burst: bool,
    bufs: Vec<Vec<u8>>,
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sys: sys::Scratch,
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

    /// Run the join handshake and produce the transport. `peers[r]` is rank
    /// `r`'s bound address (including our own at `peers[rank]`); `epoch`
    /// identifies this launch (the launcher stamps its PID) and must agree
    /// across ranks. Fails fast on a version or epoch mismatch, and with
    /// [`UdpError::HandshakeTimeout`] if any peer stays silent past
    /// `timeout`.
    pub fn connect(
        self,
        rank: Rank,
        peers: Vec<SocketAddr>,
        epoch: u64,
        timeout: Duration,
    ) -> Result<UdpTransport, UdpError> {
        let t = UdpTransport::from_parts(self.socket, rank, peers, epoch)?;
        t.handshake(PROTO_VERSION, timeout)?;
        Ok(t)
    }
}

/// A socket-backed [`Transport`]: one UDP socket per rank, versioned
/// datagrams, batched syscalls. See the module docs for the layering and
/// wire format.
pub struct UdpTransport {
    socket: UdpSocket,
    rank: Rank,
    epoch: u64,
    peers: Vec<SocketAddrV4>,
    tx: RefCell<TxState>,
    rx: RefCell<RxState>,
    stats: RefCell<UdpStats>,
    /// Staged datagrams that trigger an eager flush (see
    /// `PREMA_UDP_BATCH`).
    tx_batch: usize,
    /// Last value handed to `set_read_timeout`, to skip redundant
    /// `setsockopt` syscalls in the blocking-receive loop.
    cached_timeout: Cell<Option<Duration>>,
    tracer: Tracer,
}

impl UdpTransport {
    /// Bind a socket (use port 0 to let the kernel pick) and start the
    /// two-phase join. `PREMA_UDP_BATCH` (validated via [`crate::env`])
    /// overrides the staged-datagram flush threshold.
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
    ) -> Result<Self, UdpError> {
        let peers = peers
            .into_iter()
            .map(|a| match a {
                SocketAddr::V4(v4) => Ok(v4),
                other => Err(UdpError::AddrUnsupported(other)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tx_batch = crate::env::usize_var("PREMA_UDP_BATCH")
            .unwrap_or(IO_BATCH)
            .clamp(1, 1024);
        Ok(UdpTransport {
            socket,
            rank,
            epoch,
            peers,
            tx: RefCell::new(TxState {
                staged: Vec::with_capacity(tx_batch),
                #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
                sys: sys::Scratch::with_capacity(IO_BATCH),
            }),
            rx: RefCell::new(RxState {
                ready: VecDeque::new(),
                in_burst: false,
                bufs: (0..IO_BATCH).map(|_| vec![0u8; MAX_DGRAM]).collect(),
                #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
                sys: sys::Scratch::with_capacity(IO_BATCH),
            }),
            stats: RefCell::new(UdpStats::default()),
            tx_batch,
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
        let _ = pool::recycle(frame);
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
            let (len, from) = {
                let rx = &mut *self.rx.borrow_mut();
                match self.socket.recv_from(&mut rx.bufs[0]) {
                    Ok((len, SocketAddr::V4(from))) => (len, from),
                    Ok(_) => continue,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => return Err(UdpError::Io(e)),
                }
            };
            self.handshake_ingest(len, from, version, &mut welcomed)?;
        }
    }

    /// Classify one datagram received while joining. Version/epoch
    /// mismatches are fatal here (the whole point of the handshake); DATA
    /// from peers that finished earlier is queued for normal delivery.
    fn handshake_ingest(
        &self,
        len: usize,
        from: SocketAddrV4,
        version: u32,
        welcomed: &mut [bool],
    ) -> Result<(), UdpError> {
        let Some((header, body)) = self.parse_header(len) else {
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
                match decode_dgram(&mut r, &header) {
                    Some(env) if env.dst == self.rank => {
                        self.stats.borrow_mut().received += 1;
                        self.rx.borrow_mut().ready.push_back(env);
                    }
                    Some(_) => self.stats.borrow_mut().misrouted += 1,
                    None => self.stats.borrow_mut().malformed += 1,
                }
            }
            _ => self.stats.borrow_mut().malformed += 1,
        }
        Ok(())
    }

    /// Copy `rx.bufs[0][..len]` into a pooled buffer, read and
    /// magic-check the header. Returns the header plus the remaining body.
    /// `None` ⇒ already counted as runt / stray.
    fn parse_header(&self, len: usize) -> Option<(Header, Bytes)> {
        if len < HEADER_LEN {
            self.stats.borrow_mut().runts += 1;
            return None;
        }
        let frame = {
            let rx = self.rx.borrow();
            let mut b = pool::take(len);
            b.put_slice(&rx.bufs[0][..len]);
            b.freeze()
        };
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
            KIND_DATA => match decode_dgram(&mut r, &header) {
                Some(env) if env.dst == self.rank => {
                    self.stats.borrow_mut().received += 1;
                    ready.push_back(env);
                }
                Some(env) => {
                    self.stats.borrow_mut().misrouted += 1;
                    self.tracer.emit(|| TraceEvent::DcsDropped {
                        peer,
                        handler: env.handler.0,
                    });
                }
                None => {
                    self.stats.borrow_mut().malformed += 1;
                    self.tracer
                        .emit(|| TraceEvent::DcsDropped { peer, handler: 0 });
                }
            },
            _ => self.stats.borrow_mut().malformed += 1,
        }
    }

    /// Set the socket read timeout, skipping the `setsockopt` when the
    /// value is unchanged (the blocking loop re-arms every slice).
    fn set_read_timeout(&self, wait: Duration) {
        let wait = wait.max(Duration::from_millis(1));
        if self.cached_timeout.get() == Some(wait) {
            return;
        }
        if self.socket.set_read_timeout(Some(wait)).is_ok() {
            self.cached_timeout.set(Some(wait));
        }
    }

    /// Push every staged datagram to the kernel — `sendmmsg` in
    /// [`IO_BATCH`]-sized chunks. Buffers are recycled into the pool after
    /// the syscall.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn flush_tx(&self) {
        use std::os::fd::AsRawFd;
        let tx = &mut *self.tx.borrow_mut();
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
        for (_, bytes) in tx.staged.drain(..) {
            let _ = pool::recycle(bytes);
        }
    }

    /// Portable fallback: one `send_to` per staged datagram.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn flush_tx(&self) {
        let tx = &mut *self.tx.borrow_mut();
        for (dst, bytes) in tx.staged.drain(..) {
            let mut stats = self.stats.borrow_mut();
            stats.send_calls += 1;
            match self.socket.send_to(&bytes, self.peers[dst]) {
                Ok(_) => stats.sent += 1,
                Err(_) => stats.send_errors += 1,
            }
            drop(stats);
            let _ = pool::recycle(bytes);
        }
    }

    /// Drain everything queued on the socket without blocking — `recvmmsg`
    /// in [`IO_BATCH`]-sized gulps. Returns envelopes made ready.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn drain_rx(&self) -> usize {
        use std::os::fd::AsRawFd;
        let fd = self.socket.as_raw_fd();
        let rx = &mut *self.rx.borrow_mut();
        let before = rx.ready.len();
        loop {
            let RxState { bufs, sys: s, .. } = rx;
            s.addrs.clear();
            s.iovs.clear();
            s.hdrs.clear();
            for b in bufs.iter_mut() {
                s.addrs.push(sys::SockAddrIn {
                    family: 0,
                    port_be: 0,
                    addr_be: 0,
                    zero: [0; 8],
                });
                s.iovs.push(sys::IoVec {
                    base: b.as_mut_ptr(),
                    len: b.len(),
                });
            }
            for i in 0..bufs.len() {
                s.hdrs.push(sys::MMsgHdr {
                    hdr: sys::MsgHdr {
                        name: &mut s.addrs[i],
                        namelen: std::mem::size_of::<sys::SockAddrIn>() as u32,
                        iov: &mut s.iovs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            let vlen = bufs.len() as u32;
            // SAFETY: scaffolding and buffers both live in `rx`, held
            // exclusively for the duration of the call.
            let ret = unsafe { sys::recvmmsg(fd, s.hdrs.as_mut_ptr(), vlen) };
            if ret <= 0 {
                // -EAGAIN: queue empty. -EINTR: let the caller's loop retry.
                self.stats.borrow_mut().recv_empty += 1;
                break;
            }
            self.stats.borrow_mut().recv_calls += 1;
            let got = ret as usize;
            for i in 0..got {
                let len = rx.sys.hdrs[i].len as usize;
                let from = sys::from_sockaddr(&rx.sys.addrs[i]);
                let frame = {
                    let mut b = pool::take(len.max(1));
                    b.put_slice(&rx.bufs[i][..len]);
                    b.freeze()
                };
                self.ingest_dgram(frame, from, &mut rx.ready);
            }
            if got < vlen as usize {
                break; // queue drained mid-batch
            }
        }
        rx.ready.len() - before
    }

    /// Portable fallback: nonblocking `recv_from` until `WouldBlock`.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn drain_rx(&self) -> usize {
        let rx = &mut *self.rx.borrow_mut();
        let before = rx.ready.len();
        if self.socket.set_nonblocking(true).is_err() {
            return 0;
        }
        loop {
            let got = {
                let RxState { bufs, .. } = rx;
                match self.socket.recv_from(&mut bufs[0]) {
                    Ok((len, SocketAddr::V4(from))) => Some((len, from)),
                    Ok(_) => continue,
                    Err(_) => None,
                }
            };
            let Some((len, from)) = got else {
                self.stats.borrow_mut().recv_empty += 1;
                break;
            };
            self.stats.borrow_mut().recv_calls += 1;
            let frame = {
                let mut b = pool::take(len.max(1));
                b.put_slice(&rx.bufs[0][..len]);
                b.freeze()
            };
            self.ingest_dgram(frame, from, &mut rx.ready);
        }
        let _ = self.socket.set_nonblocking(false);
        self.cached_timeout.set(None);
        rx.ready.len() - before
    }
}

impl Transport for UdpTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, env: Envelope) {
        if env.payload.len() > MAX_DGRAM - HEADER_LEN - DATA_OVERHEAD {
            self.stats.borrow_mut().oversize += 1;
            self.tracer.emit(|| TraceEvent::DcsDropped {
                peer: env.dst,
                handler: env.handler.0,
            });
            return;
        }
        let dgram = data_dgram(&env, self.epoch);
        let mut tx = self.tx.borrow_mut();
        tx.staged.push((env.dst, dgram));
        let full = tx.staged.len() >= self.tx_batch;
        drop(tx);
        if full {
            self.flush_tx();
        }
    }

    /// Staged sends leave on every call. The socket is looked at only when
    /// nothing is ready, and the `None` that ends a burst one drain made
    /// ready costs no syscall: a caller pumping until `None` pays one drain
    /// for K datagrams, not two, and comes back on its next pass anyway.
    fn try_recv(&self) -> Option<Envelope> {
        self.flush_tx();
        {
            let rx = &mut *self.rx.borrow_mut();
            if let Some(env) = rx.ready.pop_front() {
                return Some(env);
            }
            if std::mem::take(&mut rx.in_burst) {
                return None;
            }
        }
        let made_ready = self.drain_rx() > 0;
        let rx = &mut *self.rx.borrow_mut();
        rx.in_burst = made_ready;
        rx.ready.pop_front()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        if let Some(env) = self.try_recv() {
            return Some(env);
        }
        let deadline = saturating_deadline(timeout);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let wait = (deadline - now).min(BLOCK_SLICE);
            self.set_read_timeout(wait);
            let got = {
                let rx = &mut *self.rx.borrow_mut();
                match self.socket.recv_from(&mut rx.bufs[0]) {
                    Ok((len, SocketAddr::V4(from))) => Some((len, from)),
                    _ => None,
                }
            };
            if let Some((len, from)) = got {
                self.stats.borrow_mut().recv_calls += 1;
                let frame = {
                    let rx = self.rx.borrow();
                    let mut b = pool::take(len.max(1));
                    b.put_slice(&rx.bufs[0][..len]);
                    b.freeze()
                };
                {
                    let rx = &mut *self.rx.borrow_mut();
                    self.ingest_dgram(frame, from, &mut rx.ready);
                }
            }
            if let Some(env) = self.try_recv() {
                return Some(env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosHandle, ChaosTransport};
    use crate::clock::Clock;
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

    /// Two in-process transports joined over real loopback sockets.
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

    #[test]
    fn header_roundtrip() {
        let h = Header {
            magic: MAGIC,
            version: PROTO_VERSION,
            kind: KIND_DATA,
            src: 3,
            epoch: 0xDEAD_BEEF,
        };
        let bytes = encode_header(WireWriter::new(), &h).finish();
        assert_eq!(bytes.len(), HEADER_LEN);
        let mut r = WireReader::new(bytes);
        assert_eq!(decode_header(&mut r), Some(h));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn dgram_roundtrip() {
        let env = Envelope {
            src: 2,
            dst: 5,
            handler: HandlerId(0xFEED),
            tag: Tag::System,
            payload: Bytes::from_static(b"hello wire"),
        };
        let bytes = data_dgram(&env, 42);
        let mut r = WireReader::new(bytes);
        let h = decode_header(&mut r).expect("header");
        assert_eq!(h.magic, MAGIC);
        assert_eq!(h.version, PROTO_VERSION);
        assert_eq!(h.kind, KIND_DATA);
        assert_eq!(h.src, 2);
        assert_eq!(h.epoch, 42);
        let got = decode_dgram(&mut r, &h).expect("body");
        assert_eq!(got.src, env.src);
        assert_eq!(got.dst, env.dst);
        assert_eq!(got.handler, env.handler);
        assert_eq!(got.tag, env.tag);
        assert_eq!(got.payload, env.payload);
    }

    #[test]
    fn loopback_pair_delivers_both_ways() {
        let (t0, t1) = pair(7);
        t0.send(env_to(0, 1, 11));
        let _ = t0.try_recv(); // sends stage until the sender's next poll
        let got = t1.recv_timeout(Duration::from_secs(2)).expect("0→1");
        assert_eq!(got.handler, HandlerId(11));
        assert_eq!(got.src, 0);
        t1.send(env_to(1, 0, 22));
        let _ = t1.try_recv();
        let got = t0.recv_timeout(Duration::from_secs(2)).expect("1→0");
        assert_eq!(got.handler, HandlerId(22));
        assert!(t0.stats().sent >= 1);
        assert!(t0.stats().received >= 1);
    }

    #[test]
    fn staged_sends_flush_as_one_batch() {
        let (t0, t1) = pair(8);
        // Below the flush threshold: sends stage, the next receive-side
        // flush pushes them all (one syscall on the batched path).
        for i in 0..5 {
            t0.send(env_to(0, 1, i));
        }
        let _ = t0.try_recv(); // flushes
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 5 && Instant::now() < deadline {
            if let Some(e) = t1.recv_timeout(Duration::from_millis(50)) {
                got.push(e.handler.0);
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4], "in order, exactly once");
    }

    #[test]
    fn batch_frames_pass_through() {
        let (t0, t1) = pair(9);
        t0.send_batch(1, vec![env_to(0, 1, 1), env_to(0, 1, 2)]);
        let _ = t0.try_recv();
        let mut out = VecDeque::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while out.len() < 2 && Instant::now() < deadline {
            if t1.try_recv_batch(&mut out) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let ids: Vec<u32> = out.iter().map(|e| e.handler.0).collect();
        assert_eq!(ids, vec![1, 2]);
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

    /// A burst of K datagrams costs the socket one look: the drain that
    /// finds them, and nothing for the `None` that ends the pump — in this
    /// layer or in the reliable layer above it (HEAD: K + 1 drains, each an
    /// extra empty `recvmmsg`).
    #[test]
    fn a_burst_costs_one_socket_drain() {
        const K: u32 = 8;
        let (t0, t1) = pair(13);
        let (a, b) = (ReliableTransport::new(t0), ReliableTransport::new(t1));
        for i in 0..K {
            a.send(env_to(0, 1, i));
        }
        // Flushes; loopback has queued all K on `b`'s socket when this
        // returns.
        assert!(a.try_recv().is_none());
        let before = b.inner.stats();
        let got: Vec<u32> = std::iter::from_fn(|| b.try_recv())
            .map(|e| e.handler.0)
            .collect();
        assert_eq!(got, (0..K).collect::<Vec<_>>());
        let after = b.inner.stats();
        let looks = (after.recv_calls - before.recv_calls) + (after.recv_empty - before.recv_empty);
        assert!(looks <= 2, "{looks} socket drains for one pump");
        assert_eq!(after.received - before.received, K as u64);
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
                while (heard < N || !t.all_acked()) && Instant::now() < deadline {
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

    proptest! {
        /// Arbitrary bytes decode to `Some` or `None`: no panic, and a
        /// payload no longer than what came in (it is a slice of it).
        #[test]
        fn decoders_survive_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..96)) {
            let len = raw.len();
            let mut r = WireReader::new(Bytes::from(raw));
            let header = decode_header(&mut r);
            prop_assert_eq!(header.is_some(), len >= HEADER_LEN);
            if let Some(env) = header.and_then(|h| decode_dgram(&mut r, &h)) {
                prop_assert!(HEADER_LEN + DATA_OVERHEAD + env.payload.len() <= len);
            }
        }
    }
}
