//! Allocation budget of the map stage.
//!
//! The map stage should allocate only what it emits: one patch list per
//! routed op, one cell list per magic-state delivery, and the growth of the
//! op list itself. A counting global allocator (per-thread, so tests on
//! other threads do not add to it) counts the heap allocations made inside
//! `Lowered::map()` for each Table I circuit at paper size, and the count
//! per routed op must stay within the budget.

use ftqc::benchmarks::Benchmark;
use ftqc::compiler::{CompileSession, CompilerOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations (not reallocations) allowed per routed op.
const ALLOCATIONS_PER_OP: f64 = 2.0;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only touch const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCATIONS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's counters on; returns its result and the
/// allocations and reallocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCATIONS.with(|c| c.set(0));
    REALLOCATIONS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        ALLOCATIONS.with(Cell::get),
        REALLOCATIONS.with(Cell::get),
    )
}

#[test]
fn map_stage_allocates_at_most_two_per_routed_op() {
    let mut over = Vec::new();
    for benchmark in Benchmark::all() {
        let lowered = CompileSession::new(CompilerOptions::default())
            .prepare(&benchmark.circuit())
            .expect("prepares")
            .lower();
        let (mapped, allocations, reallocations) = counted(|| lowered.map());
        let ops = mapped.expect("maps").ops().len();
        let per_op = allocations as f64 / ops as f64;
        println!(
            "{}: {allocations} allocations, {reallocations} reallocations, {ops} ops ({per_op:.2}/op)",
            benchmark.name()
        );
        if per_op > ALLOCATIONS_PER_OP {
            over.push(format!("{} {per_op:.2}/op", benchmark.name()));
        }
    }
    assert!(
        over.is_empty(),
        "map stage over {ALLOCATIONS_PER_OP} allocations per routed op: {over:?}"
    );
}
