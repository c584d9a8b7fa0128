//! Microbenchmarks of the analytic kernels the ledger (`benchmark/`)
//! has no probe for yet: two formulas, the control recursions, convex
//! closure. Engine dispatch, the queues, `PftkStandard::rate` and the
//! dumbbell are its `sim.*`, `net.*`, `tfrc.*` and `dumbbell_long` rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ebrc_convex::convex_closure;
use ebrc_core::control::{BasicControl, ComprehensiveControl, ControlConfig};
use ebrc_core::formula::{PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};
use ebrc_core::weights::WeightProfile;
use ebrc_dist::{IidProcess, Rng, ShiftedExponential};

fn bench_formulas(c: &mut Criterion) {
    let mut g = c.benchmark_group("formulas");
    let sqrt = Sqrt::with_rtt(0.05);
    let simp = PftkSimplified::with_rtt(0.05);
    g.bench_function("sqrt_rate", |b| {
        b.iter(|| black_box(sqrt.rate(black_box(0.02))))
    });
    g.bench_function("pftk_simplified_rate", |b| {
        b.iter(|| black_box(simp.rate(black_box(0.02))))
    });
    g.finish();
}

fn bench_controls(c: &mut Criterion) {
    let mut g = c.benchmark_group("controls");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("basic_control_10k_events", |b| {
        let f = PftkSimplified::with_rtt(1.0);
        b.iter(|| {
            let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(50.0, 0.9));
            let mut rng = Rng::seed_from(3);
            let trace = BasicControl::new(f.clone(), ControlConfig::new(WeightProfile::tfrc(8)))
                .run(&mut process, &mut rng, 10_000);
            black_box(trace.throughput())
        })
    });
    g.bench_function("comprehensive_control_10k_events", |b| {
        let f = PftkSimplified::with_rtt(1.0);
        b.iter(|| {
            let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(50.0, 0.9));
            let mut rng = Rng::seed_from(3);
            let trace =
                ComprehensiveControl::new(f.clone(), ControlConfig::new(WeightProfile::tfrc(8)))
                    .run(&mut process, &mut rng, 10_000);
            black_box(trace.throughput())
        })
    });
    g.finish();
}

fn bench_convex(c: &mut Criterion) {
    let mut g = c.benchmark_group("convex");
    let f = PftkStandard::with_rtt(1.0);
    let samples = f.sample_g(3.0, 8.0, 10_001);
    g.bench_function("convex_closure_10k_points", |b| {
        b.iter(|| black_box(convex_closure(&samples)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_formulas, bench_controls, bench_convex
}
criterion_main!(benches);
