//! A counting global allocator: every heap allocation call (`alloc`,
//! `alloc_zeroed`, `realloc`) bumps a per-thread counter, so a span can
//! read how many allocations the calls inside it made. The counter is a
//! constant-initialised thread local, which costs one TLS add per call and
//! never allocates itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark binary's global allocator.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // During thread teardown the slot may already be gone; the count of
    // such late calls does not matter.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made by the current thread so far.
#[must_use]
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}
