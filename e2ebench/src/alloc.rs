//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! Every metric named `*bytes*` is read from these counters. The live count
//! is sharded into per-thread slots on separate cache lines, so threads
//! allocating at once (clients and server workers) do not contend on one
//! counter. The high-water mark is updated after every allocation of at
//! least [`PEAK_STEP`] bytes and whenever a thread has allocated another
//! [`PEAK_STEP`] bytes in total, so it may miss at most that much per
//! thread. The counters are statistics only (no other data is published
//! through them), so the atomics use `Relaxed` ordering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// The system allocator, with live/peak byte accounting.
pub struct Counting;

const SLOTS: usize = 16;
const PEAK_STEP: usize = 4096;

#[repr(align(128))]
struct Slot(AtomicIsize);

static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static PEAK: AtomicIsize = AtomicIsize::new(0);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static SINCE_PEAK_CHECK: Cell<usize> = const { Cell::new(0) };
}

fn slot() -> &'static AtomicIsize {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &LIVE[i].0
}

fn grow(n: usize) {
    slot().fetch_add(n as isize, Relaxed);
    let check = SINCE_PEAK_CHECK
        .try_with(|c| {
            let since = c.get() + n;
            c.set(if since >= PEAK_STEP { 0 } else { since });
            since >= PEAK_STEP
        })
        .unwrap_or(true);
    if check {
        let now = live() as isize;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

fn shrink(n: usize) {
    slot().fetch_sub(n as isize, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are `Counting`'s; the counters are
// only updated after a successful allocation and never touch the memory,
// and updating them allocates nothing (const-initialized thread-locals
// without destructors).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> i64 {
    LIVE.iter().map(|s| s.0.load(Relaxed) as i64).sum()
}

/// The highest `live()` seen since the last [`reset_peak`].
pub fn peak() -> i64 {
    (PEAK.load(Relaxed) as i64).max(live())
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(live() as isize, Relaxed);
}
