//! Sweep-throughput benchmarks of the job-graph runner: jobs/sec at 1
//! and N workers, for synthetic CPU-bound jobs and for a real
//! experiment grid. The absolute jobs/sec numbers CI tracks come from
//! `repro bench-runner` (BENCH_runner.json); these benches watch the
//! pool's own overhead and scaling shape.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ebrc_experiments::{find_experiment, Scale, MASTER_SEED};
use ebrc_runner::{default_threads, run_plan, ExecConfig, Pool};

/// A CPU-bound synthetic job: enough work that scheduling overhead is
/// visible but not dominant.
fn spin(iters: u64, salt: u64) -> u64 {
    let mut acc = salt;
    for i in 0..iters {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
    }
    acc
}

fn bench_synthetic(c: &mut Criterion) {
    const JOBS: usize = 64;
    let mut g = c.benchmark_group("runner-synthetic");
    g.sample_size(10);
    g.throughput(Throughput::Elements(JOBS as u64));
    for threads in [1, default_threads()] {
        g.bench_function(format!("spin64/{threads}-threads"), |b| {
            let pool = Pool::new(threads);
            b.iter(|| {
                let tasks: Vec<_> = (0..JOBS as u64).map(|i| move || spin(200_000, i)).collect();
                black_box(pool.run(tasks))
            })
        });
    }
    g.finish();
}

fn bench_experiment_grid(c: &mut Criterion) {
    // A small real grid: fig03's Monte-Carlo specs at a reduced scale.
    let scale = Scale {
        mc_events: 4_000,
        sim_warmup: 4.0,
        sim_span: 8.0,
        replicas: 1,
        quick: true,
    };
    let exp = find_experiment("fig03").unwrap();
    let plan = exp.plan(scale);
    let mut g = c.benchmark_group("runner-fig03");
    g.sample_size(10);
    g.throughput(Throughput::Elements(plan.unique_len() as u64));
    for threads in [1, default_threads()] {
        g.bench_function(format!("sims/{threads}-threads"), |b| {
            let pool = Pool::new(threads);
            b.iter(|| {
                black_box(run_plan(
                    &pool,
                    MASTER_SEED,
                    black_box(&plan),
                    None,
                    None,
                    ExecConfig::default(),
                    |_, _| {},
                    |_| {},
                ))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_synthetic, bench_experiment_grid
}
criterion_main!(benches);
