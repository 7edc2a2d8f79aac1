//! Heap accounting for profiling: a counting [`std::alloc::GlobalAlloc`]
//! wrapper around the system allocator, compiled in only under the
//! `prof-alloc` feature (std-only; no effect on release builds that
//! leave the feature off).
//!
//! Every allocation/deallocation updates a process-wide live-bytes
//! counter and two peaks — an all-time peak and a resettable *window*
//! peak. [`MemoryWindow`] brackets a phase: root [`crate::Span`]s open
//! one on entry and, on drop, report the window's net growth and peak
//! as `mem.<phase>.net_bytes` / `mem.<phase>.peak_bytes` gauges in the
//! global registry. Counters are relaxed atomics: a handful of
//! uncontended atomic ops per allocation, accurate to the byte for
//! single-threaded phases and a faithful global high-water mark for
//! parallel ones.
//!
//! This is the only unsafe code in the workspace (the workspace denies
//! `unsafe_code`); the `#[allow]` is scoped to the trait impl, which
//! merely forwards to [`std::alloc::System`] and adjusts counters.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Live heap bytes right now (allocated minus freed since start).
static CURRENT: AtomicI64 = AtomicI64::new(0);
/// All-time high-water mark of [`CURRENT`].
static PEAK: AtomicI64 = AtomicI64::new(0);
/// High-water mark since the last [`MemoryWindow::start`].
static WINDOW_PEAK: AtomicI64 = AtomicI64::new(0);
/// Total bytes ever allocated.
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Total allocation calls.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let size = size as i64;
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
    WINDOW_PEAK.fetch_max(now, Ordering::Relaxed);
    TOTAL_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

fn on_free(size: usize) {
    CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Point-in-time allocator totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Live heap bytes.
    pub current_bytes: i64,
    /// All-time live-bytes peak.
    pub peak_bytes: i64,
    /// Bytes ever allocated (monotonic).
    pub total_allocated_bytes: u64,
    /// Allocation calls ever made (monotonic).
    pub allocations: u64,
}

/// Snapshot the process-wide allocator counters.
pub fn stats() -> AllocStats {
    AllocStats {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        total_allocated_bytes: TOTAL_ALLOCATED.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    }
}

/// Brackets a phase for heap accounting; see [`MemoryWindow::start`]
/// and [`MemoryWindow::finish`].
#[must_use = "call .finish() to read the window's net/peak bytes"]
#[derive(Debug)]
pub struct MemoryWindow {
    start_bytes: i64,
}

/// What a [`MemoryWindow`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryDelta {
    /// Live-bytes growth across the window (negative when the phase
    /// freed more than it allocated).
    pub net_bytes: i64,
    /// Highest live-bytes level reached during the window, relative to
    /// the level at window start.
    pub peak_bytes: i64,
}

impl MemoryWindow {
    /// Open a window at the current live-bytes level and reset the
    /// window peak to it. Windows are global: opening one while
    /// another is in flight folds both phases into the newer window's
    /// peak, which is why only **root** spans open them (root spans on
    /// the orchestrating thread run strictly one at a time).
    pub fn start() -> MemoryWindow {
        let start_bytes = CURRENT.load(Ordering::Relaxed);
        WINDOW_PEAK.store(start_bytes, Ordering::Relaxed);
        MemoryWindow { start_bytes }
    }

    /// Close the window and report its net growth and relative peak.
    pub fn finish(self) -> MemoryDelta {
        let end = CURRENT.load(Ordering::Relaxed);
        let window_peak = WINDOW_PEAK.load(Ordering::Relaxed);
        MemoryDelta {
            net_bytes: end - self.start_bytes,
            peak_bytes: (window_peak - self.start_bytes).max(0),
        }
    }
}

/// Counting allocator: forwards to [`std::alloc::System`], tallying
/// sizes on the way through. Installed as the `#[global_allocator]`
/// for every binary that links `prvm-obs` with `prof-alloc` on.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// The one sanctioned unsafe block in the workspace: implementing
// `GlobalAlloc` is inherently unsafe, and this impl only forwards each
// call to `System` verbatim and bumps relaxed counters — it never
// touches the returned memory.
#[allow(unsafe_code)]
mod imp {
    use super::{on_alloc, on_free, CountingAlloc};
    use std::alloc::{GlobalAlloc, Layout, System};

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = unsafe { System.alloc_zeroed(layout) };
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_free(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
            if !new_ptr.is_null() {
                on_free(layout.size());
                on_alloc(new_size);
            }
            new_ptr
        }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_move_the_counters() {
        // Serialized with `windows_observe_net_and_peak`: a 1 MiB block
        // live inside its window would break the net-bytes bound.
        let _guard = crate::global_registry_test_lock();
        let before = stats();
        let block = vec![0u8; 1 << 20];
        std::hint::black_box(&block);
        let during = stats();
        drop(block);
        // Monotonic counters are immune to other test threads freeing.
        assert!(
            during.total_allocated_bytes - before.total_allocated_bytes >= (1 << 20),
            "1 MiB allocation not counted"
        );
        assert!(during.allocations > before.allocations);
        assert!(during.peak_bytes > 0);
    }

    #[test]
    fn windows_observe_net_and_peak() {
        // Serialize against the other global-state tests; their small
        // allocations cannot mask a 256 KiB transient.
        let _guard = crate::global_registry_test_lock();
        let window = MemoryWindow::start();
        let block = vec![0u8; 1 << 18];
        std::hint::black_box(&block);
        drop(block);
        let delta = window.finish();
        assert!(
            delta.peak_bytes >= (1 << 18) / 2,
            "peak {} missed the 256 KiB transient",
            delta.peak_bytes
        );
        assert!(
            delta.net_bytes < (1 << 18) / 2,
            "net {} should not retain the dropped transient",
            delta.net_bytes
        );
    }
}
