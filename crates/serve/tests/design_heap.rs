//! Retained heap of one cached design: the bytes a [`DesignCache`] entry
//! keeps live after a miss has built its template simulator, per catalog
//! design. A counting global allocator measures them, so this suite is a
//! binary of its own with a single test (a concurrent test's allocations
//! would land in the count).
//!
//! Run with `--nocapture` to see the numbers:
//!
//! ```sh
//! cargo test -p veribug-serve --test design_heap -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use veribug_serve::DesignCache;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes a fresh cache holds after one miss on `source`, with the
/// simulator the lookup handed back already dropped.
fn cached_bytes(source: &str) -> isize {
    let cache = DesignCache::new(1);
    let before = LIVE.load(Ordering::Relaxed);
    drop(cache.get(source).expect("catalog design builds"));
    let retained = LIVE.load(Ordering::Relaxed) - before;
    drop(cache);
    retained
}

#[test]
fn a_cached_design_retains_the_same_heap_on_every_build() {
    let designs = designs::catalog();
    // Warm one-time allocations (lazy metric registration, thread-locals)
    // so they land in no design's count.
    for d in &designs {
        cached_bytes(d.source);
    }
    for d in &designs {
        let first = cached_bytes(d.source);
        let second = cached_bytes(d.source);
        println!("design_heap {:<16} {first:>8} B", d.name);
        assert!(first > 0, "{}: a cached design holds its build", d.name);
        assert_eq!(
            first, second,
            "{}: retained bytes differ between builds",
            d.name
        );
    }
}
