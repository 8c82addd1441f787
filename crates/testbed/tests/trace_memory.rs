//! A trace's probe state is proportional to one epoch, not to the whole
//! trace (DESIGN.md §14, "Per-trace memory"): pathload and pathChirp
//! take each stream's one-way delays out of their log when they
//! evaluate it, and the epoch loop makes `PingStats` forget every
//! record it has summarized. So the peak live heap of one trace may
//! grow with its epoch count only by the little each finished epoch
//! leaves behind in the simulator.
//!
//! The binary installs a counting global allocator, so it holds exactly
//! one `#[test]`: a second test running concurrently would allocate
//! into the same tallies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tputpred_testbed::{catalog_for, run_trace, Preset};

/// The system allocator, tallying live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for each caller, and only tallies sizes
// (atomics, no allocation) beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap, in bytes above the live heap at the call, while
/// `run` runs.
fn peak_heap_bytes(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    run();
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn trace_peak_heap_barely_grows_with_its_epoch_count() {
    // The quick preset's epoch phases (50 s of simulated time per
    // epoch) on its cheapest catalog path, a ~1 Mb/s DSL line.
    let preset = |epochs| Preset {
        paths: 10,
        traces_per_path: 1,
        epochs_per_trace: epochs,
        ..Preset::quick()
    };
    let path = catalog_for(&preset(1))
        .into_iter()
        .find(|p| p.name == "dsl-00")
        .expect("the 2004 catalog starts with dsl-00");
    const N: usize = 10;
    let short = peak_heap_bytes(|| drop(run_trace(&path, 0, &preset(N))));
    let long = peak_heap_bytes(|| drop(run_trace(&path, 0, &preset(4 * N))));
    let per_epoch = long.saturating_sub(short) as f64 / (3 * N) as f64;
    assert!(
        per_epoch < 8.0 * 1024.0,
        "peak heap grows {:.1} KiB per epoch ({short} B at {N} epochs, {long} B at {})",
        per_epoch / 1024.0,
        4 * N
    );
}
