//! A full [`InstanceView`] shares its schema's relation set: building one
//! and cloning it allocate nothing, so a compiled plan that opens a view
//! per solve and clones it at every nested level pays no allocation for
//! it. Restricting the view copies the set only when the restriction hides
//! a relation.
//!
//! The test counts the allocations its own thread makes through a counting
//! global allocator, so tests running beside it on other threads do not
//! disturb the count.

#![allow(unsafe_code)]

use cqa_model::parser::{parse_instance, parse_schema};
use cqa_model::{InstanceView, RelName};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches no allocated memory and allocates nothing
// (a const-initialized thread-local without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn full_views_and_their_clones_allocate_nothing() {
    let schema = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
    let db = parse_instance(&schema, "R(a,1) R(a,2) S(1,x) T(x)").unwrap();
    let all: BTreeSet<RelName> = schema.relations().map(|(r, _)| r).collect();

    let (n, view) = allocations(|| InstanceView::new(&db));
    assert_eq!(n, 0, "InstanceView::new allocated");
    let (n, twin) = allocations(|| view.clone());
    assert_eq!(n, 0, "InstanceView::clone allocated");
    let (n, twin) = allocations(|| twin.restrict(&all));
    assert_eq!(n, 0, "a restriction that hides nothing allocated");
    assert_eq!(twin.len(), 4);

    // Hiding a relation copies the set once, and leaves the original view
    // and the schema's set as they were.
    let r = RelName::new("R");
    let hidden = view.clone().hide(r);
    assert!(!hidden.is_visible(r));
    assert!(view.is_visible(r));
    assert!(InstanceView::new(&db).is_visible(r));
    assert_eq!(hidden.len(), 2);
}
