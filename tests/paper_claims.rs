//! End-to-end integration tests: the paper's headline claims, asserted
//! across crates at interactive scale.

use ebrc::core::control::{BasicControl, ComprehensiveControl};
use ebrc::core::formula::{c1, c2, AimdFormula, PftkSimplified, PftkStandard, Sqrt};
use ebrc::core::theory::{claim4, prop4_overshoot_bound};
use ebrc::core::weights::WeightProfile;
use ebrc::dist::{IidProcess, Rng, ShiftedExponential};
use ebrc::experiments::breakdown::Breakdown;
use ebrc::experiments::scenarios::{DumbbellConfig, DumbbellRun, QueueSpec};
use ebrc::experiments::spec::ns2_config;
use ebrc::experiments::{Scale, SimSpec, MASTER_SEED};
use ebrc::runner::{JobCtx, Spec};
use ebrc::tcp::{AimdFixedLink, EbrcFixedLink, SharedFixedLink};
use ebrc::tfrc::FormulaKind;

/// Figure 2 / Proposition 4: the convexity deviation of PFTK-standard
/// is the paper's 1.0026 (b = 1 constants, interval [3.25, 3.5]).
#[test]
fn figure2_deviation_ratio() {
    let f = PftkStandard::new(c1(1.0), c2(1.0), 1.0, 4.0);
    let r = prop4_overshoot_bound(&f, 3.25, 3.5, 40_001);
    assert!((r - 1.0026).abs() < 2e-4, "ratio {r}");
}

/// Claim 4: isolated AIMD vs equation-based loss-event rates differ by
/// exactly 16/9 at β = 1/2 — analytically and in the fluid simulation.
#[test]
fn claim4_sixteen_ninths() {
    assert!((claim4::loss_event_rate_ratio(0.5) - 16.0 / 9.0).abs() < 1e-12);
    let aimd = AimdFixedLink::new(1.0, 0.5, 100.0);
    let formula = AimdFormula::new(1.0, 0.5);
    let mut ebrc = EbrcFixedLink::new(formula.clone(), WeightProfile::tfrc(8), 100.0);
    let isolated = aimd.loss_event_rate() / ebrc.measured_loss_event_rate(5_000);
    let shared = SharedFixedLink::new(aimd, formula, WeightProfile::tfrc(8))
        .run(200.0, 2_000.0)
        .loss_rate_ratio();
    assert!((isolated - 16.0 / 9.0).abs() < 0.05, "isolated {isolated}");
    assert!(shared > 1.0 && shared < isolated, "shared {shared}");
}

/// Theorem 1 / Claim 1 end-to-end: under i.i.d. losses the basic
/// control is conservative for every formula, more so at heavy loss for
/// PFTK, and less so with a longer estimator window.
#[test]
fn claim1_shapes() {
    let events = 40_000;
    let norm = |f: &PftkSimplified, l: usize, p: f64| {
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(1.0 / p, 0.999));
        let mut rng = Rng::seed_from(5);
        BasicControl::new(f.clone(), WeightProfile::tfrc(l))
            .run(&mut process, &mut rng, events)
            .normalized_throughput(f)
    };
    let f = PftkSimplified::with_rtt(1.0);
    let light_l4 = norm(&f, 4, 0.02);
    let heavy_l4 = norm(&f, 4, 0.4);
    let heavy_l16 = norm(&f, 16, 0.4);
    assert!(light_l4 <= 1.02, "conservative at light loss: {light_l4}");
    assert!(heavy_l4 < light_l4, "throughput drop with p");
    assert!(heavy_l4 < 0.5, "pronounced drop for PFTK: {heavy_l4}");
    assert!(heavy_l16 > heavy_l4, "larger L less conservative");
}

/// Proposition 2 across the packet-level protocol: the comprehensive
/// control's closed-form durations never undershoot the basic ones.
#[test]
fn proposition2_compare_controls() {
    let f = Sqrt::with_rtt(1.0);
    for seed in [1u64, 2, 3] {
        let mk = || IidProcess::new(ShiftedExponential::from_mean_cv(30.0, 0.95));
        let weights = WeightProfile::tfrc(8);
        let b = BasicControl::new(f.clone(), weights.clone()).run(
            &mut mk(),
            &mut Rng::seed_from(seed),
            20_000,
        );
        let c = ComprehensiveControl::new(f.clone(), weights).run(
            &mut mk(),
            &mut Rng::seed_from(seed),
            20_000,
        );
        assert!(c.throughput() >= b.throughput() - 1e-9);
    }
}

/// Claim 2 / Figure 6 sign flip: SQRT conservative, PFTK-simplified
/// non-conservative at heavy loss in the audio setting.
#[test]
fn claim2_audio_sign_flip() {
    let normalized = |formula| {
        let spec = SimSpec::Audio {
            p_drop: 0.2,
            formula,
            window: 4,
            duration: 3_000.0,
            seed: 9,
        };
        spec.run(&mut JobCtx::for_label(MASTER_SEED, spec.key()))
            .scalars()[1]
    };
    let sqrt_norm = normalized(FormulaKind::Sqrt);
    let pftk_norm = normalized(FormulaKind::PftkSimplified);
    assert!(sqrt_norm <= 1.05, "SQRT overshoot {sqrt_norm}");
    assert!(pftk_norm > 1.0, "PFTK should overshoot: {pftk_norm}");
}

/// Claim 3 ordering in the many-sources regime: p'(TCP) ≤ p(TFRC) ≤
/// p''(Poisson), within simulation tolerance.
#[test]
fn claim3_loss_event_rate_ordering() {
    let scale = Scale::quick();
    let m = DumbbellRun::build(&ns2_config(8, 8, 0, Some(5.0)))
        .measure(scale.sim_warmup, scale.sim_span);
    let p_tfrc = m.tfrc_valid_mean(|f| f.loss_event_rate);
    let p_tcp = m.tcp_valid_mean(|f| f.loss_event_rate);
    let p_poisson = m.probe_loss_rate.unwrap();
    assert!(p_tcp <= p_tfrc * 1.4, "p' {p_tcp} vs p {p_tfrc}");
    assert!(p_tfrc <= p_poisson * 1.4, "p {p_tfrc} vs p'' {p_poisson}");
}

/// Claim 4 at packet level (Figure 17): over a small DropTail
/// bottleneck with one flow of each kind, TCP experiences clearly more
/// loss events. (A sub-BDP buffer keeps the loss events frequent enough
/// for a statistically meaningful ratio within the test budget.)
#[test]
fn claim4_packet_level_ratio() {
    let cfg = DumbbellConfig::lab_paper(1, QueueSpec::DropTail(25), 21);
    let mut run = DumbbellRun::build(&cfg);
    let m = run.measure(20.0, 150.0);
    let p_tcp = m.tcp_valid_mean(|f| f.loss_event_rate);
    let p_tfrc = m.tfrc_valid_mean(|f| f.loss_event_rate);
    assert!(
        p_tcp / p_tfrc > 1.2,
        "p'/p = {} (p' {p_tcp}, p {p_tfrc})",
        p_tcp / p_tfrc
    );
}

/// The breakdown methodology detects the non-TCP-friendly regime with a
/// conservative TFRC: friendliness can exceed 1 while conservativeness
/// stays at or below ~1 (few-flows regime).
#[test]
fn breakdown_separates_the_factors() {
    let cfg = DumbbellConfig::lab_paper(2, QueueSpec::DropTail(64), 31);
    let mut run = DumbbellRun::build(&cfg);
    let m = run.measure(20.0, 80.0);
    let b = Breakdown::from_measurements(&m).expect("losses");
    assert!(
        b.conservativeness < 1.2,
        "conservativeness {}",
        b.conservativeness
    );
    assert!(b.loss_rate_ratio > 1.0, "p'/p {}", b.loss_rate_ratio);
}
