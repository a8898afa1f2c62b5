//! Counting-allocator proof of the zero-copy wire path.
//!
//! A counting `#[global_allocator]` wraps the system allocator so a
//! test can meter exactly how many heap allocations a code region
//! performs. Everything is asserted from ONE test function: the libtest
//! harness runs tests on separate threads, and a concurrent test's
//! allocations would bleed into a metering window.
//!
//! What is pinned down:
//!
//! * the borrowed request parser performs **zero** allocations on every
//!   hot-op line;
//! * a warm `stats` round-trip through `handle_line_into` with a reused
//!   response buffer performs **zero** allocations end to end — parse,
//!   dispatch, render;
//! * a warm `decide` round-trip allocates only what the session core
//!   needs: within a fixed small budget, so codec allocations cannot
//!   silently creep back in.
//!
//! The wire gate in `scripts/verify.sh` runs this suite at
//! `DSE_THREADS=1` and `DSE_THREADS=8`; metered regions never cross the
//! parallel pool, so the counts must hold at any pool size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations performed while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn wire_codec_is_allocation_free_in_steady_state() {
    use design_space_layer::dse_server::protocol::parse_request_fast;
    use design_space_layer::dse_server::EngineBuilder;

    // -- the borrowed parser never touches the heap ----------------------
    let hot_lines = [
        r#"{"op":"stats"}"#,
        r#"{"op":"open","session":"a","snapshot":"crypto"}"#,
        r#"{"op":"decide","session":"a","name":"EOL","value":768,"id":"r1"}"#,
        r#"{"op":"decide","session":"a","name":"ModuloIsOdd","value":"Guaranteed"}"#,
        r#"{"op":"retract","session":"a","name":"EOL"}"#,
        r#"{"op":"eval","session":"a","deadline_ms":60000}"#,
        r#"{"op":"surviving_cores","session":"a","limit":4,"offset":2}"#,
        r#"{"op":"viable","session":"a","name":"ImplementationStyle","id":17}"#,
        r#"{"op":"close","session":"a"}"#,
    ];
    for line in hot_lines {
        let (n, parsed) = allocations_in(|| parse_request_fast(line).is_some());
        assert!(parsed, "hot-op line must take the fast path: {line}");
        assert_eq!(n, 0, "parse_request_fast allocated {n}× on {line}");
    }

    let engine = EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");

    // -- a warm stats round-trip performs ZERO allocations ---------------
    let mut out = Vec::new();
    for _ in 0..16 {
        out.clear();
        engine.handle_line_into(r#"{"op":"stats"}"#, &mut out); // warm-up
    }
    let (stats_allocs, ()) = allocations_in(|| {
        for _ in 0..100 {
            out.clear();
            engine.handle_line_into(r#"{"op":"stats"}"#, &mut out);
        }
    });
    assert_eq!(
        stats_allocs, 0,
        "warm stats round-trips allocated {stats_allocs}× over 100 requests"
    );

    // -- a warm decide round-trip allocates only for the session core ----
    engine.handle_line(r#"{"op":"open","session":"w","snapshot":"crypto"}"#);
    let decide = r#"{"op":"decide","session":"w","name":"EOL","value":768}"#;
    let retract = r#"{"op":"retract","session":"w"}"#;
    for _ in 0..16 {
        out.clear();
        engine.handle_line_into(decide, &mut out); // warm-up
        out.clear();
        engine.handle_line_into(retract, &mut out);
    }
    let (decide_allocs, ()) = allocations_in(|| {
        out.clear();
        engine.handle_line_into(decide, &mut out);
    });
    // The session core legitimately allocates (state clone, journal
    // record, focus path); the budget below holds the codec at zero —
    // re-adding tree parse or `format!`-style rendering blows past it.
    // Measured: ~26 allocations, all in the session core. A tree parse
    // alone adds 10+, so the budget still trips on any codec regression.
    assert!(
        decide_allocs <= 32,
        "warm decide round-trip allocated {decide_allocs}× — codec \
         allocations are creeping back into the wire path"
    );
}
