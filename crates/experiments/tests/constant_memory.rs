//! The non-engine specs keep O(1) state per run: their long-run
//! statistics stream through running sums, so peak live heap does not
//! grow with the number of loss events (Monte-Carlo controls, Claim 4's
//! isolated fixed point) or fluid steps (Claim 4's shared link).
//!
//! A counting global allocator tracks live and peak heap bytes. The file
//! holds a single `#[test]` so no other test allocates while one runs.

use ebrc_experiments::spec::{ControlLaw, WeightKind};
use ebrc_experiments::{SimSpec, MASTER_SEED};
use ebrc_runner::{JobCtx, Spec as _};
use ebrc_tfrc::FormulaKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap bytes a spec's run adds above what was live before it.
fn peak_heap_bytes(spec: &SimSpec) -> usize {
    let mut ctx = JobCtx::for_label(MASTER_SEED, spec.key());
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    std::hint::black_box(spec.run(&mut ctx));
    PEAK.load(Ordering::Relaxed) - before
}

/// Runs `spec` at a small and a large size and requires the large run's
/// peak live heap to be no larger than the small one's.
fn assert_flat(family: &str, spec: impl Fn(usize) -> SimSpec, small: usize, large: usize) {
    let small_peak = peak_heap_bytes(&spec(small));
    let large_peak = peak_heap_bytes(&spec(large));
    assert!(
        large_peak <= small_peak,
        "{family}: peak live heap grows with the run, \
         {small_peak} B at {small} vs {large_peak} B at {large}"
    );
}

#[test]
fn long_run_statistics_hold_constant_heap() {
    let mc = |control| {
        move |events| SimSpec::Mc {
            control,
            formula: FormulaKind::PftkSimplified,
            weights: WeightKind::Tfrc,
            window: 8,
            p: 0.05,
            cv: 0.9,
            events,
            seed: 1,
        }
    };
    assert_flat("mc/basic", mc(ControlLaw::Basic), 2_000, 200_000);
    assert_flat(
        "mc/comprehensive",
        mc(ControlLaw::Comprehensive),
        2_000,
        200_000,
    );
    let phase = |events| SimSpec::PhaseMc {
        sojourn: 5.0,
        events,
        seed: 2,
    };
    assert_flat("mc-phase", phase, 2_000, 200_000);
    let iso = |events| SimSpec::Claim4Iso { beta: 0.5, events };
    assert_flat("claim4/iso", iso, 2_000, 200_000);
    let shared = |t_end: usize| SimSpec::Claim4Shared {
        beta: 0.5,
        t_end: t_end as f64,
    };
    assert_flat("claim4/shared", shared, 150, 1_500);
}
