//! Runtime allocation witness for the external executor's hot loop,
//! mirroring `ssj-core`'s witness suite (DESIGN.md §5g): a counting
//! global allocator wraps the system allocator, each path is warmed once
//! so every reusable buffer reaches steady-state capacity, and a second
//! identical pass must perform **zero** heap allocations (enforced in
//! release builds; debug builds only exercise the paths).
//!
//! Two witnesses:
//! * `probe_partition` — the per-partition candidate enumeration hotlint
//!   registers as a hot root, including its in-place sort of an unsorted
//!   partition;
//! * partition-buffer reload — `clear()` + full refill, the once-per-
//!   partition rebuild, which must reuse the buffer's capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_core::candidates::Posting;
use ssj_extern::probe_partition;

// --- counting allocator -------------------------------------------------

thread_local! {
    /// Heap allocations made by the current thread (allocs + reallocs;
    /// frees are not counted — a steady-state pass must do neither).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation and
/// reallocation on the calling thread.
struct CountingAlloc;

// SAFETY: delegates wholesale to `System`; the thread-local counter is
// const-initialized, so bumping it never recurses into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it made on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// Release builds demand exactly zero; debug builds only exercise the path
/// (debug invariants and overflow plumbing are allowed to allocate there).
fn assert_steady_state(label: &str, allocs: u64) {
    if cfg!(debug_assertions) {
        eprintln!("{label}: {allocs} alloc(s) in debug build (not enforced)");
    } else {
        assert_eq!(
            allocs, 0,
            "{label}: expected zero steady-state allocations, observed {allocs}"
        );
    }
}

// --- deterministic data -------------------------------------------------

/// splitmix64 — deterministic posting streams without external crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct postings over `buckets` signatures, in arrival
/// (unsorted) order. Small bucket count keeps runs long, so the pair
/// enumeration does real work.
fn postings_stream(count: usize, buckets: u64, seed: u64) -> Vec<Posting> {
    let mut state = seed;
    let mut next_id = 0u32;
    (0..count)
        .map(|_| {
            let sig = splitmix64(&mut state) % buckets;
            next_id += 1;
            (sig, next_id)
        })
        .collect()
}

// --- witnesses ----------------------------------------------------------

#[test]
fn warmed_partition_probe_allocates_nothing() {
    let stream = postings_stream(4_000, 300, 0x5eed_0e01);
    let mut postings = stream.clone();
    let mut pairs: Vec<u64> = Vec::new();
    let warm_collisions = probe_partition(&mut postings, &mut pairs);
    assert!(warm_collisions > 0, "warm-up enumerated no candidate pairs");

    // Reload the unsorted arrival order so the measured pass sorts for
    // real, then probe under the counter.
    postings.clear();
    postings.extend_from_slice(&stream);
    let (allocs, collisions) = count_allocs(|| {
        pairs.clear();
        probe_partition(black_box(&mut postings), &mut pairs)
    });
    assert_eq!(
        collisions, warm_collisions,
        "steady-state pass must repeat the warm-up"
    );
    assert_steady_state("probe_partition", allocs);
}

#[test]
fn warmed_partition_reload_allocates_nothing() {
    let stream = postings_stream(4_000, 300, 0x5eed_0e02);
    let mut postings: Vec<Posting> = Vec::new();
    postings.extend_from_slice(&stream);

    // Steady state: a refill of the same size reuses the capacity.
    let (allocs, len) = count_allocs(|| {
        postings.clear();
        for &posting in black_box(&stream) {
            postings.push(posting);
        }
        postings.len()
    });
    assert_eq!(len, stream.len());
    assert_steady_state("partition buffer reload (clear + refill)", allocs);
}
