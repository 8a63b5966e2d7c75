//! The counting allocator shared by the bench integration tests. It
//! defers to the system allocator and records the allocation calls made
//! and the bytes live, with their high-water mark. Each test binary
//! installs it with
//!
//! ```ignore
//! mod common;
//! #[global_allocator]
//! static ALLOC: common::Counting = common::Counting;
//! ```
//!
//! The counters are process global, so a binary keeps every measured
//! window inside one `#[test]` body: libtest runs tests on parallel
//! threads, which would race their allocations into each other's windows.

// Each binary reads the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Allocation calls so far: `alloc`, `alloc_zeroed` and `realloc`.
pub fn allocs() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

fn grew(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomic side effects with no bearing on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { System.alloc(l) };
        if !p.is_null() {
            grew(l.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { System.alloc_zeroed(l) };
        if !p.is_null() {
            grew(l.size());
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let q = unsafe { System.realloc(p, l, n) };
        if !q.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(n);
            LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) };
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
    }
}
