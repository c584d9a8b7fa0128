//! The ledger's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! states the same names, units, directions and bounds; a test keeps
//! the two in step. Later issues cite these names, so they are fixed.

use crate::stats::Better::{self, Higher, Lower};

/// A workload: one set of inputs the benchmark runs.
pub struct WorkloadDef {
    /// Fixed name.
    pub name: &'static str,
    /// Why it exists — which layers it loads and which it leaves idle.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that the acceptance driver
    /// runs it and holds later changes to the bounds on it. A workload
    /// whose timings identical runs spread wider than any bound the
    /// contract allows is not listed: `run` reports it and `check`
    /// prints its differences, but nothing is accepted or rejected on it.
    pub gated: bool,
}

pub const CATALOGUE_COLD: &str = "catalogue_cold";
pub const DUMBBELL_LONG: &str = "dumbbell_long";
pub const MANYFLOW_10K: &str = "manyflow_10k";
pub const CATALOGUE_SLICED_POPULATE: &str = "catalogue_sliced_populate";
pub const SERVICE_WARM: &str = "service_warm";

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: CATALOGUE_COLD,
        why: "what `repro all` users run: 162 short sims on the pool, no cache, monolithic; \
              sim+net+tfrc+tcp+scenarios work, runner a little, cache and serve idle",
        gated: true,
    },
    WorkloadDef {
        name: DUMBBELL_LONG,
        why: "the paper's regime: two 2500 s boxed-endpoint dumbbells, tens of pending events; \
              dispatch, RED/DropTail and endpoints dominate, calendar and runner idle",
        gated: true,
    },
    WorkloadDef {
        name: MANYFLOW_10K,
        why: "same engine used the other way: 10^4 SoA-bank flows, ~10^4 pending timers; \
              calendar, banks and cache footprint dominate, boxed endpoints idle",
        gated: true,
    },
    WorkloadDef {
        name: CATALOGUE_SLICED_POPULATE,
        why: "the catalogue as CI and the daemon execute it: 250k-event slices migrating \
              between workers plus 162 cache writes; its gap to catalogue_cold prices slicing",
        gated: true,
    },
    WorkloadDef {
        name: SERVICE_WARM,
        why: "the cache read side: a daemon answering submissions from a warm cache, zero \
              engine events; registry+codec+cache+serve only, so sim changes must not move it",
        // A submission is a ping-pong between client, daemon and pool
        // threads, and on the shared 2-vCPU hosts this runs on identical
        // runs minutes apart spread its timings by 20–37 % (README,
        // Observed spreads): wider than the largest bound there is.
        gated: false,
    },
];

const ALL: &[&str] = &[
    CATALOGUE_COLD,
    DUMBBELL_LONG,
    MANYFLOW_10K,
    CATALOGUE_SLICED_POPULATE,
    SERVICE_WARM,
];
const SINGLE_SIMS: &[&str] = &[DUMBBELL_LONG, MANYFLOW_10K];
const CATALOGUES: &[&str] = &[CATALOGUE_COLD, CATALOGUE_SLICED_POPULATE];
const SERVICE: &[&str] = &[SERVICE_WARM];

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEndDef {
    /// Fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression. One bound serves every workload,
    /// so the workload that spreads widest sets it, and on the shared
    /// 2-vCPU hosts this runs on that is 17–21 % for every metric (see
    /// the README's observed spreads): each bound is 25 %, the most the
    /// benchmark contract allows, because a bound inside the noise
    /// would reject changes at random.
    pub bound: f64,
    /// The workloads on which the metric measures work of its own
    /// kind. On the others a driver run still reports it, as a
    /// restatement of `wall_s`, and the suite does not print it.
    pub home: &'static [&'static str],
}

/// Whether `BENCHMARK.json` lists a metric measured on these workloads:
/// one of them is a workload it lists. The driver would only ever read
/// a restated wall or a zero for the others.
pub fn listed(measured_on: &[&str]) -> bool {
    let gated = |name: &&str| workload(name).is_some_and(|w| w.gated);
    measured_on.iter().any(gated)
}

/// The failure share is carried by the result line's own `attempted`
/// and `failed` keys, not as a metric: it is 0 on a healthy run, and a
/// metric that is 0 has no relative spread to gate.
pub const OPS_FAILED_SHARE: &str = "ops_failed_share";

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        home: ALL,
    },
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        home: ALL,
    },
    EndToEndDef {
        name: "pkts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        home: SINGLE_SIMS,
    },
    EndToEndDef {
        name: "sims_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        home: CATALOGUES,
    },
    EndToEndDef {
        name: "submit_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        home: SERVICE,
    },
    EndToEndDef {
        name: "submit_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        home: SERVICE,
    },
    EndToEndDef {
        name: "submits_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        home: SERVICE,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        home: ALL,
    },
];

/// A per-layer metric: one number about one crate or module. No
/// bound; a traced run reports it.
pub struct LayerDef {
    /// Fixed name, prefixed by the layer.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// The workloads whose traced run measures it; it reads 0 on the
    /// others (the layer is idle there, or the probe belongs elsewhere).
    pub measured_on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_on: &'static [&'static str],
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        measured_on,
    }
}

const SIMS: &[&str] = &[
    CATALOGUE_COLD,
    DUMBBELL_LONG,
    MANYFLOW_10K,
    CATALOGUE_SLICED_POPULATE,
];
const WALKS: &[&str] = &[CATALOGUE_COLD, CATALOGUE_SLICED_POPULATE, SERVICE_WARM];
const COLD: &[&str] = &[CATALOGUE_COLD];
const LONG: &[&str] = &[DUMBBELL_LONG];
const MANY: &[&str] = &[MANYFLOW_10K];
const SLICED: &[&str] = &[CATALOGUE_SLICED_POPULATE];
const CACHED: &[&str] = &[CATALOGUE_SLICED_POPULATE, SERVICE_WARM];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [LayerDef; 55] = [
    // ebrc-sim
    layer("sim.dispatch_ns", "ns", Lower, LONG),
    layer("sim.wheel_hold_ns_100", "ns", Lower, MANY),
    layer("sim.wheel_hold_ns_10k", "ns", Lower, MANY),
    layer("sim.wheel_hold_ns_100k", "ns", Lower, MANY),
    layer("sim.heap_hold_ns_10k", "ns", Lower, MANY),
    layer("sim.events", "count", Lower, SIMS),
    layer("sim.events_per_s", "1/s", Higher, SIMS),
    layer("sim.budgeted_overhead_ratio", "ratio", Lower, SLICED),
    // ebrc-net
    layer("net.droptail_pkt_ns", "ns", Lower, LONG),
    layer("net.red_pkt_ns", "ns", Lower, LONG),
    layer("net.link_pkt_ns", "ns", Lower, LONG),
    // ebrc-tfrc / ebrc-tcp / ebrc-core
    layer("tfrc.formula_ns", "ns", Lower, LONG),
    layer("tfrc.alone_pkt_ns", "ns", Lower, LONG),
    layer("tcp.alone_pkt_ns", "ns", Lower, LONG),
    layer("core.mc_event_ns", "ns", Lower, COLD),
    // experiments::scenarios
    layer("scenarios.dumbbell_build_us", "us", Lower, LONG),
    layer("scenarios.manyflow_build_ms", "ms", Lower, MANY),
    layer("scenarios.warmup_share", "ratio", Lower, SINGLE_SIMS),
    layer("scenarios.measure_us", "us", Lower, SINGLE_SIMS),
    layer("scenarios.manyflow_pkt_ns_1k", "ns", Lower, MANY),
    layer("scenarios.manyflow_pkt_ns_10k", "ns", Lower, MANY),
    // experiments::spec / registry
    layer("spec.run_s.dumbbell_red", "s", Lower, CATALOGUES),
    layer("spec.run_s.dumbbell_droptail", "s", Lower, CATALOGUES),
    layer("spec.run_s.manyflow", "s", Lower, CATALOGUES),
    layer("spec.run_s.mc", "s", Lower, CATALOGUES),
    layer("spec.run_s.audio", "s", Lower, CATALOGUES),
    layer("spec.run_s.analytic", "s", Lower, CATALOGUES),
    layer("spec.key_hash_us", "us", Lower, COLD),
    layer("spec.encode_us", "us", Lower, SLICED),
    layer("spec.decode_us", "us", Lower, SERVICE),
    layer("registry.plan_build_ms", "ms", Lower, WALKS),
    layer("registry.reduce_ms", "ms", Lower, WALKS),
    layer("registry.render_ms", "ms", Lower, WALKS),
    // ebrc-runner
    layer("runner.pool_task_us", "us", Lower, COLD),
    layer("runner.overhead_s", "s", Lower, COLD),
    layer("runner.ledger_gap_share", "ratio", Lower, COLD),
    layer("runner.parallel_speedup", "ratio", Higher, COLD),
    layer("runner.straggler_share", "ratio", Lower, COLD),
    layer("runner.slices", "count", Lower, SLICED),
    layer("runner.sliced_overhead_ratio", "ratio", Lower, SLICED),
    layer("cache.put_us", "us", Lower, SLICED),
    layer("cache.get_us", "us", Lower, SERVICE),
    layer("cache.bytes", "bytes", Lower, CACHED),
    layer("cache.hits", "count", Higher, CACHED),
    layer("cache.misses", "count", Lower, CACHED),
    // ebrc-serve
    layer("serve.ping_rt_us", "us", Lower, SERVICE),
    layer("serve.frame_rt_us", "us", Lower, SERVICE),
    layer("serve.proto_encode_us", "us", Lower, SERVICE),
    layer("serve.proto_decode_us", "us", Lower, SERVICE),
    layer("serve.backend_exec_ms", "ms", Lower, SERVICE),
    layer("serve.bytes_per_submit", "bytes", Lower, SERVICE),
    // ebrc-trace
    layer("trace.sink_overhead_ratio", "ratio", Lower, LONG),
    layer("trace.bytes_per_event", "bytes", Lower, LONG),
    layer("trace.validate_mb_per_s", "MB/s", Higher, LONG),
    // the harness itself
    layer("bench.trace_overhead_ratio", "ratio", Lower, ALL),
];

/// The workload definition called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn items(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("BENCHMARK.json {key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let m = manifest();
        let workloads: Vec<(String, String)> = items(&m, "workloads")
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().unwrap().to_string(),
                    w["why"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(m["run_seconds"], crate::RUN_SECONDS);

        let e2e = items(&m, "end_to_end");
        let ours: Vec<&EndToEndDef> = END_TO_END.iter().filter(|d| listed(d.home)).collect();
        assert_eq!(e2e.len(), ours.len());
        for (got, want) in e2e.iter().zip(ours) {
            assert_eq!(got["name"], want.name);
            assert_eq!(got["unit"], want.unit, "{}", want.name);
            assert_eq!(got["better"], want.better.name(), "{}", want.name);
            assert_eq!(got["bound"], want.bound, "{}", want.name);
        }

        let layers = items(&m, "per_layer");
        let ours: Vec<&LayerDef> = PER_LAYER.iter().filter(|d| listed(d.measured_on)).collect();
        assert_eq!(layers.len(), ours.len());
        assert!(layers.len() <= 128);
        for (got, want) in layers.iter().zip(ours) {
            assert_eq!(got["name"], want.name);
            assert_eq!(got["unit"], want.unit, "{}", want.name);
            assert_eq!(got["better"], want.better.name(), "{}", want.name);
        }
    }
}
