//! Every spec family keeps O(1) state per run: its long-run statistics
//! stream through running sums, so peak live heap does not grow with
//! the number of loss events (Monte-Carlo controls, Claim 4's isolated
//! fixed point), fluid steps (Claim 4's shared link) or simulated
//! seconds (the audio sender and every engine-backed dumbbell). The
//! theory reads the same running sums: `analyze` on a basic-control
//! run's `TraceStats` holds O(1) heap too.
//!
//! A counting global allocator tracks live and peak heap bytes, but
//! only those a run allocates and frees on the thread measuring it:
//! the test harness's own threads allocate while a test runs, and a
//! zero-slack bound must not see them.

use ebrc_core::control::{BasicControl, TraceStats};
use ebrc_core::formula::PftkSimplified;
use ebrc_core::theory::analyze;
use ebrc_core::weights::WeightProfile;
use ebrc_dist::{IidProcess, Rng, ShiftedExponential};
use ebrc_experiments::spec::{ControlLaw, SweepMode, WeightKind};
use ebrc_experiments::{SimSpec, MASTER_SEED};
use ebrc_runner::{JobCtx, Spec as _};
use ebrc_tfrc::FormulaKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

// `const`-initialised cells of `Copy` types: touching them allocates
// nothing and registers no destructor, so the allocator may use them.
thread_local! {
    /// Whether this thread is inside [`peak_heap_bytes`].
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread allocated minus bytes it freed since the
    /// measurement began (negative when it frees older memory).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` seen since the measurement began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `bytes` (negative: frees) to this thread's live count while it
/// is being measured.
fn count(bytes: isize) {
    if COUNTING.with(Cell::get) {
        let live = LIVE.with(|l| {
            l.set(l.get() + bytes);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(-(layout.size() as isize));
            count(new_size as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap bytes `run` adds, on this thread, above what was
/// live before it.
fn peak_heap_bytes<T>(run: impl FnOnce() -> T) -> usize {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    std::hint::black_box(run());
    COUNTING.with(|c| c.set(false));
    PEAK.with(Cell::get) as usize
}

/// Slack an engine-backed run may add at the larger length: the
/// pending set and the queues are bounded but not fixed, so a longer
/// run can meet a slightly deeper one (a calendar slot, a queue slot, a
/// SACK-set node). A per-loss-event log outgrows it within a few
/// hundred events.
const PENDING_SET_JITTER: usize = 4096;

/// Measures `peak` at a small and a large size and requires the large
/// peak to exceed the small one by at most `slack` bytes.
fn assert_flat_peaks(
    family: &str,
    peak: impl Fn(usize) -> usize,
    small: usize,
    large: usize,
    slack: usize,
) {
    assert!(large >= 10 * small, "{family}: lengths must be 10x apart");
    let small_peak = peak(small);
    let large_peak = peak(large);
    assert!(
        large_peak <= small_peak + slack,
        "{family}: peak live heap grows with the run, \
         {small_peak} B at {small} vs {large_peak} B at {large}"
    );
}

/// [`assert_flat_peaks`] on a spec's run; the spec and its context are
/// built before the measurement starts.
fn assert_flat(
    family: &str,
    spec: impl Fn(usize) -> SimSpec,
    small: usize,
    large: usize,
    slack: usize,
) {
    let peak = |size| {
        let spec = spec(size);
        let mut ctx = JobCtx::for_label(MASTER_SEED, spec.key());
        peak_heap_bytes(|| spec.run(&mut ctx))
    };
    assert_flat_peaks(family, peak, small, large, slack);
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
    assert_flat("mc/basic", mc(ControlLaw::Basic), 2_000, 200_000, 0);
    assert_flat(
        "mc/comprehensive",
        mc(ControlLaw::Comprehensive),
        2_000,
        200_000,
        0,
    );
    let phase = |events| SimSpec::PhaseMc {
        sojourn: 5.0,
        events,
        seed: 2,
    };
    assert_flat("mc-phase", phase, 2_000, 200_000, 0);
    // The theory on the accumulator: the basic control fed into a
    // `TraceStats`, then every condition and theorem through `analyze`.
    let theory = |events| {
        peak_heap_bytes(|| {
            let f = PftkSimplified::with_rtt(1.0);
            let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(1.0 / 0.05, 0.9));
            let mut stats = TraceStats::new();
            BasicControl::new(f.clone(), WeightProfile::tfrc(8)).run_into(
                &mut process,
                &mut Rng::seed_from(1),
                events,
                &mut stats,
            );
            analyze(&f, &stats)
        })
    };
    assert_flat_peaks("theory/analyze", theory, 2_000, 200_000, 0);
    let iso = |events| SimSpec::Claim4Iso { beta: 0.5, events };
    assert_flat("claim4/iso", iso, 2_000, 200_000, 0);
    let shared = |t_end: usize| SimSpec::Claim4Shared {
        beta: 0.5,
        t_end: t_end as f64,
    };
    assert_flat("claim4/shared", shared, 150, 1_500, 0);

    // Packet-level families: the length is simulated seconds (the
    // audio run's duration, a dumbbell's measurement span).
    let audio = |duration: usize| SimSpec::Audio {
        p_drop: 0.25,
        formula: FormulaKind::PftkSimplified,
        window: 8,
        duration: duration as f64,
        seed: 3,
    };
    assert_flat("audio", audio, 2_000, 20_000, PENDING_SET_JITTER);
    let ns2 = |probe| {
        move |span: usize| SimSpec::Ns2Dumbbell {
            n: 16,
            l: 8,
            rep: 0,
            probe,
            warmup: 10.0,
            span: span as f64,
        }
    };
    assert_flat("ns2", ns2(None), 60, 600, PENDING_SET_JITTER);
    assert_flat("ns2/probe", ns2(Some(5.0)), 60, 600, PENDING_SET_JITTER);
    let lab = |span: usize| SimSpec::LabDumbbell {
        queue: 2,
        n: 4,
        seed: 5,
        warmup: 10.0,
        span: span as f64,
    };
    assert_flat("lab", lab, 60, 600, PENDING_SET_JITTER);
    let site = |span: usize| SimSpec::SiteDumbbell {
        site: 2,
        n: 4,
        seed: 7,
        quick: true,
        warmup: 10.0,
        span: span as f64,
    };
    assert_flat("site", site, 60, 600, PENDING_SET_JITTER);
    let cable = |span: usize| SimSpec::CableModem {
        seed: 9,
        warmup: 10.0,
        span: span as f64,
    };
    assert_flat("cable-modem", cable, 200, 2_000, PENDING_SET_JITTER);
    let sweep = |span: usize| SimSpec::BufferSweep {
        mode: SweepMode::Shared,
        buffer: 16,
        seed: 11,
        warmup: 10.0,
        span: span as f64,
    };
    assert_flat("buffer-sweep", sweep, 60, 600, PENDING_SET_JITTER);
    let manyflow = |span: usize| SimSpec::ManyFlowDumbbell {
        n: 20,
        rep: 0,
        warmup: 10.0,
        span: span as f64,
    };
    assert_flat("manyflow", manyflow, 60, 600, PENDING_SET_JITTER);
}
