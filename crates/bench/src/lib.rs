//! Criterion benches for the PREMA reproduction live in `benches/`:
//! `figures` (Figures 3–6 + the mesh study), `ablations` (design-knob
//! sweeps), `substrates` (partitioner / MOL / engine / mesher
//! microbenchmarks), `fastpath` (per-message and per-poll costs vs the
//! retired transport designs), `ring` (the SPSC ring mesh, including the
//! zero-allocation steady-state check), and `mol_ready` (the ready-work
//! index across queue depths, including the flat-in-depth check). Run with
//! `cargo bench`.
//!
//! This lib exposes [`CountingAlloc`], a pass-through global allocator that
//! counts allocations so `benches/ring.rs` can *assert* — not just eyeball —
//! that the transport's steady-state send/receive path never touches the
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed since the last [`reset_alloc_count`]. SeqCst:
/// the counter brackets measured regions across threads and its cost is
/// noise next to the allocation it counts.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation (including
/// grow-reallocations — each is a fresh chance to blow the zero-alloc
/// budget). Register it in a bench binary with `#[global_allocator]`:
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

/// Zero the allocation counter (call immediately before a measured region).
pub fn reset_alloc_count() {
    ALLOCS.store(0, Ordering::SeqCst);
}
