//! Allocation budgets of the map and schedule stages.
//!
//! The map stage should allocate only what it emits: one cell list per
//! magic-state delivery and the growth of the op list itself (a routed op
//! holds its qubits inline). The schedule stage should keep the routed ops
//! where the map stage put them: it moves the op list into the schedule as
//! it is and allocates one pre-sized `(start, duration)` array beside it,
//! so it reallocates nothing. When a stage cache shares the map artifact,
//! which keeps its ops as routed, the stage copies the ops once and the
//! program shares the cached schedule rather than copying it. A counting
//! global allocator (per-thread, so tests on other threads do not add to
//! it) counts the heap allocations, reallocations and requested bytes made
//! inside `Lowered::map()` and `Mapped::schedule()` for each Table I
//! circuit at paper size, and each figure per routed op must stay within
//! its budget.

use ftqc::benchmarks::Benchmark;
use ftqc::compiler::{CompileSession, CompilerOptions, Lowered, StageCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Map-stage heap allocations (not reallocations) allowed per routed op.
const ALLOCATIONS_PER_OP: f64 = 1.0;

/// Schedule-stage bytes requested (allocations plus reallocations' new
/// sizes) allowed per routed op.
const SCHEDULE_BYTES_PER_OP: f64 = 64.0;

/// The same with a stage cache: one 64-byte copy of each routed op and its
/// 16-byte time entry fit, a second copy does not.
const CACHED_SCHEDULE_BYTES_PER_OP: f64 = 128.0;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one `counter` event requesting `bytes`.
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only touch const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCATIONS, new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one counted call made.
struct Counts {
    allocations: u64,
    reallocations: u64,
    bytes: u64,
}

/// Runs `f` with this thread's counters on; returns its result and what
/// it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    for counter in [&ALLOCATIONS, &REALLOCATIONS, &BYTES] {
        counter.with(|c| c.set(0));
    }
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let counts = Counts {
        allocations: ALLOCATIONS.with(Cell::get),
        reallocations: REALLOCATIONS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    (out, counts)
}

/// The lowered stage of `benchmark` at paper size, through `session`.
fn lowered(session: &CompileSession, benchmark: Benchmark) -> Lowered {
    session
        .prepare(&benchmark.circuit())
        .expect("prepares")
        .lower()
}

#[test]
fn map_stage_allocates_at_most_one_per_routed_op() {
    let session = CompileSession::new(CompilerOptions::default());
    let mut over = Vec::new();
    for benchmark in Benchmark::all() {
        let lowered = lowered(&session, benchmark);
        let (mapped, counts) = counted(|| lowered.map());
        let Counts {
            allocations,
            reallocations,
            ..
        } = counts;
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

/// Counts `Mapped::schedule()` on each Table I circuit mapped through
/// `session`, prints the readings under `label`, and returns the circuits
/// whose stage reallocated or requested over `bytes_per_op` bytes per
/// routed op.
fn schedule_stage_over(session: &CompileSession, label: &str, bytes_per_op: f64) -> Vec<String> {
    let mut over = Vec::new();
    for benchmark in Benchmark::all() {
        let mapped = lowered(session, benchmark).map().expect("maps");
        let ops = mapped.ops().len();
        let (program, counts) = counted(|| mapped.schedule());
        program.expect("schedules");
        let per_op = counts.bytes as f64 / ops as f64;
        println!(
            "{}: {label} {} allocations, {} reallocations, {} bytes, {ops} routed ops ({per_op:.1} B/op)",
            benchmark.name(),
            counts.allocations,
            counts.reallocations,
            counts.bytes
        );
        if counts.reallocations > 0 || per_op > bytes_per_op {
            over.push(format!(
                "{} {} reallocations, {per_op:.1} B/op",
                benchmark.name(),
                counts.reallocations
            ));
        }
    }
    over
}

#[test]
fn schedule_stage_moves_the_routed_ops_without_reallocating() {
    let session = CompileSession::new(CompilerOptions::default());
    let over = schedule_stage_over(&session, "schedule stage", SCHEDULE_BYTES_PER_OP);
    assert!(
        over.is_empty(),
        "schedule stage reallocated or requested over {SCHEDULE_BYTES_PER_OP} bytes per routed op: {over:?}"
    );
}

#[test]
fn cached_schedule_stage_copies_the_routed_ops_once() {
    let session = CompileSession::new(CompilerOptions::default()).with_cache(StageCache::default());
    let over = schedule_stage_over(
        &session,
        "cached schedule stage",
        CACHED_SCHEDULE_BYTES_PER_OP,
    );
    assert!(
        over.is_empty(),
        "cached schedule stage reallocated or requested over {CACHED_SCHEDULE_BYTES_PER_OP} bytes per routed op: {over:?}"
    );
}
