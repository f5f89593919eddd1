//! Soak test: a long-lived service answers requests whose databases name
//! fresh constants every time, and its live heap stays flat. Each request's
//! constants are leased to its parsed database and freed with it, so after
//! a warm-up (plan cache, metrics ring buffer, interner tables at their
//! working size) the heap may not grow with the number of requests.
//!
//! Live bytes come from a counting global allocator; this file holds one
//! test, so nothing else allocates in the process while it measures.

#![allow(unsafe_code)]

use cqa_core::solver::ExecOptions;
use cqa_model::symbol_counts;
use cqa_serve::{ServeConfig, Service};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is updated only after a successful call and never
// touches the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests before the measurement: more than the metrics ring buffer's
/// 4,096 latency samples, so it is full.
const WARM_UP: usize = 5_000;
/// Requests measured.
const MEASURED: usize = 20_000;
/// Live-heap growth allowed per measured request.
const BYTES_PER_REQUEST: f64 = 4.0;

/// A `solve` request of one FO problem whose database names the constants
/// `a{i}` and `b{i}`, seen by no earlier request. Even `i` gives a certain
/// instance, odd `i` one whose `b{i}` block falsifies the query.
fn request(i: usize) -> String {
    let db = if i.is_multiple_of(2) {
        format!("N(c,a{i}) O(a{i}) P(a{i}) O(b{i}) P(b{i})")
    } else {
        format!("N(c,a{i}) N(c,b{i}) O(a{i}) P(a{i}) O(b{i})")
    };
    format!(
        r#"{{"op":"solve","schema":"N[2,1] O[1,1] P[1,1]","query":"N('c',y), O(y), P(y)","fks":"N[2] -> O","db":"{db}"}}"#
    )
}

fn solve(service: &Service, i: usize) {
    let reply: Value = serde_json::from_str(&service.handle_line(&request(i))).unwrap();
    let want = if i.is_multiple_of(2) { "certain" } else { "not certain" };
    assert_eq!(
        reply.get("certainty").and_then(Value::as_str),
        Some(want),
        "request {i}: {reply:?}"
    );
}

#[test]
fn fresh_constants_leave_the_heap_flat() {
    let service = Service::new(ServeConfig {
        defaults: ExecOptions::sequential(),
        cache_capacity: 8,
        max_facts: None,
    });
    for i in 0..WARM_UP {
        solve(&service, i);
    }
    let (live, names) = (LIVE.load(Relaxed), symbol_counts());
    for i in WARM_UP..WARM_UP + MEASURED {
        solve(&service, i);
    }
    let growth = (LIVE.load(Relaxed) - live) as f64 / MEASURED as f64;
    let after = symbol_counts();
    assert!(
        growth <= BYTES_PER_REQUEST,
        "live heap grew {growth:.1} B per request over {MEASURED} requests \
         (symbols before {names:?}, after {after:?})"
    );
    assert_eq!(after.leased, 0, "no request is in flight");
    assert_eq!(after.pinned, names.pinned, "plan-cache hits pin no name");
}
