//! Process-wide allocation tracking behind the `peak_mem_bytes` column
//! and the `--scale-guard` memory-scaling gate.
//!
//! The module itself is safe code: two atomic counters plus the hook
//! functions a `#[global_allocator]` calls on every allocation event. The
//! one `unsafe impl` lives in the `doda-bench` binary, which installs a
//! thin [`std::alloc::System`] wrapper that forwards sizes here. Library
//! consumers that never install the wrapper (unit tests, for one) simply
//! read zeros: every reported peak degrades to `0` rather than lying.
//!
//! The counters are process-wide on purpose — sweep workers allocate from
//! many threads, and the `O(n)` claim the scale guard enforces is about
//! the *process* high-water mark, not any single thread's.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Live heap bytes (as far as the installed allocator has reported).
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Set once by [`mark_installed`]; lets consumers distinguish "peak is
/// genuinely tiny" from "nothing is tracking".
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Records an allocation of `size` bytes. Called by the tracking
/// allocator on every successful `alloc`/`alloc_zeroed`, and as the grow
/// half of `realloc`.
#[inline]
pub fn record_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Records a deallocation of `size` bytes — `dealloc`, or the shrink
/// half of `realloc`.
#[inline]
pub fn record_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

/// Declares that a tracking global allocator is installed and feeding
/// [`record_alloc`] / [`record_dealloc`]. Called once at startup by the
/// `doda-bench` binary.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// `true` iff a tracking allocator declared itself via
/// [`mark_installed`]; when `false`, [`peak_bytes`] is always 0 and
/// memory columns/gates must treat themselves as unavailable.
pub fn tracking() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size and returns that
/// size, so `peak_bytes() - reset_peak()` brackets the growth of one
/// measured region.
pub fn reset_peak() -> usize {
    let current = CURRENT.load(Ordering::Relaxed);
    PEAK.store(current, Ordering::Relaxed);
    current
}

/// The high-water mark of live heap bytes since the last
/// [`reset_peak`] (0 when no tracking allocator is installed).
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hooks are exercised directly — the lib test binary has no
    /// tracking allocator installed, so the counters move only when we
    /// move them.
    #[test]
    fn hooks_move_the_counters_and_reset_brackets_regions() {
        let floor = reset_peak();
        record_alloc(1_000);
        record_alloc(500);
        record_dealloc(500);
        assert!(peak_bytes() >= floor + 1_500, "peak tracks the high water");
        let live = reset_peak();
        assert_eq!(peak_bytes(), live, "reset pins peak to the live size");
        record_dealloc(1_000);
    }
}
