//! Criterion benches for the PREMA reproduction live in `benches/`:
//! `ablations` (design-knob sweeps), `substrates` (partitioner / MOL /
//! engine / mesher microbenchmarks), `fastpath` (per-message and per-poll
//! costs vs the retired transport designs), `ring` (the SPSC ring mesh,
//! including the zero-allocation steady-state check), `udp` (the socket
//! wire, including its allocations per steady-state message), and
//! `mol_ready` (the ready-work index across queue depths, including the
//! flat-in-depth check). Run with `cargo bench -p prema-bench`.
//!
//! This lib exposes [`CountingAlloc`], a pass-through global allocator that
//! counts allocations so `benches/ring.rs` can *assert* — not just eyeball —
//! that the transport's steady-state send/receive path never touches the
//! allocator, and zeroed bytes so `benches/udp.rs` can assert what a join
//! zeroes; and [`assert_oracle_free`], which every bench binary runs before
//! it measures.

use criterion::Criterion;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed since the last [`reset_alloc_count`]. SeqCst:
/// the counter brackets measured regions across threads and its cost is
/// noise next to the allocation it counts.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for zeroed since the last [`reset_alloc_count`]; SeqCst for
/// the same reason.
static ZEROED: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation (including
/// grow-reallocations — each is a fresh chance to blow the zero-alloc
/// budget), and the bytes of every zeroed allocation. Register it in a
/// bench binary with `#[global_allocator]`:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: prema_bench::CountingAlloc = prema_bench::CountingAlloc;
/// ```
///
/// Frees are deliberately not counted: the invariant under test is "the
/// steady state allocates nothing", and a free implies a prior allocation
/// already counted.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    /// Forwards to `System.alloc_zeroed`, so the OS still supplies zero
    /// pages where it can instead of a `memset`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        ZEROED.fetch_add(layout.size() as u64, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations since the last [`reset_alloc_count`] (0 forever if no bench
/// binary registered [`CountingAlloc`]).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Bytes allocated zeroed since the last [`reset_alloc_count`] (0 forever
/// if no bench binary registered [`CountingAlloc`]).
pub fn zeroed_bytes() -> u64 {
    ZEROED.load(Ordering::SeqCst)
}

/// Zero both counters (call immediately before a measured region).
pub fn reset_alloc_count() {
    ALLOCS.store(0, Ordering::SeqCst);
    ZEROED.store(0, Ordering::SeqCst);
}

/// Fail the bench run unless the runtime crates were compiled without their
/// `check-invariants` oracles: published numbers must describe the build
/// users ship (DESIGN.md §8). Cargo unifies features across the whole
/// build, so this catches an oracle dependency anywhere in it, not only in
/// this crate's manifest. Runs first in each bench binary's
/// `criterion_main!`. A run-time check on purpose: `cargo clippy
/// --workspace --all-targets` unifies features with the default-featured
/// test builds and compiles the benches with the oracles on.
pub fn assert_oracle_free(_: &mut Criterion) {
    let on: Vec<&str> = [
        ("prema", prema::CHECK_INVARIANTS),
        ("prema-ilb", prema_ilb::CHECK_INVARIANTS),
        ("prema-mol", prema_mol::CHECK_INVARIANTS),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    assert!(
        on.is_empty(),
        "bench build compiled with the `check-invariants` oracles of {on:?}: \
         a dependency somewhere in the build left default features on"
    );
}
