//! CPU affinity for a thread the caller owns.
//!
//! The runtime pins nothing itself: on oversubscribed machines — more ranks
//! than cores, the common CI shape — pinning serializes ranks that the
//! scheduler would otherwise spread, and a pinned A/B run of the benchmark
//! ledger changed nothing (`benchmark/README.md`). A caller that wants a
//! thread on a fixed core (a machine-speed probe, say) calls
//! [`pin_current_thread`] from it.
//!
//! No libc dependency: on x86-64 Linux the `sched_setaffinity` syscall is
//! issued directly; everywhere else pinning is a no-op that reports failure.

/// Pin the calling thread to `core` (0-based). Returns `true` on success.
///
/// Failure is always safe to ignore — the thread simply stays under normal
/// scheduler placement. Cores at or beyond the fixed 1024-bit mask limit,
/// cores the kernel rejects (offline, cgroup-restricted), and non-Linux
/// targets all return `false`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(core: usize) -> bool {
    // A glibc-style cpu_set_t: 1024 bits. The kernel accepts any length,
    // but a fixed mask keeps this free of allocation and libc types.
    let mut mask = [0u64; 16];
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(0, len, ptr) reads `len` bytes from `ptr`
    // and touches no other memory; pid 0 targets the calling thread. rcx
    // and r11 are clobbered by the syscall instruction itself.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Non-Linux / non-x86-64 stub: pinning unsupported, report failure.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn pinning_to_core_zero_succeeds() {
        // Core 0 exists on every machine; the thread keeps running either
        // way, so this both exercises the raw syscall path and checks the
        // success report.
        assert!(pin_current_thread(0));
    }

    #[test]
    fn pinning_beyond_mask_limit_fails_cleanly() {
        assert!(!pin_current_thread(100_000));
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn pinned_thread_still_does_work() {
        let handle = std::thread::spawn(|| {
            let _ = pin_current_thread(0);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(handle.join().unwrap(), 499_500);
    }
}
