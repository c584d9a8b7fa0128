//! Formula selection with fixed or measured round-trip time.

use ebrc_core::formula::{c1, c2, PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};

/// Which round-trip time the sender plugs into the formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RttMode {
    /// The analysis hypothesis (Section II): `r` fixed to a constant.
    Fixed(f64),
    /// Protocol fidelity: the measured smoothed RTT.
    Measured,
}

/// A throughput-formula selector evaluated with a runtime RTT (TFRC
/// recomputes `f` as its RTT estimate evolves; `q = 4r` throughout, the
/// TFRC recommendation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FormulaKind {
    /// The square-root formula (Eq. 5).
    Sqrt,
    /// PFTK-standard (Eq. 6).
    PftkStandard,
    /// PFTK-simplified (Eq. 7) — the TFRC proposed-standard choice.
    PftkSimplified,
}

impl FormulaKind {
    /// Evaluates `f(p)` in packets/second with the given RTT and the
    /// default `b = 2` constants.
    ///
    /// # Panics
    /// Panics unless `p > 0` and `rtt > 0`.
    pub fn rate(&self, p: f64, rtt: f64) -> f64 {
        assert!(rtt > 0.0, "rtt must be positive");
        self.instantiate(rtt).rate(p)
    }

    /// Builds the fixed-RTT formula instance (`q = 4·rtt`, `b = 2`).
    pub fn instantiate(&self, rtt: f64) -> Box<dyn ThroughputFormula> {
        let b = 2.0;
        match self {
            FormulaKind::Sqrt => Box::new(Sqrt::new(c1(b), rtt)),
            FormulaKind::PftkStandard => Box::new(PftkStandard::new(c1(b), c2(b), rtt, 4.0 * rtt)),
            FormulaKind::PftkSimplified => {
                Box::new(PftkSimplified::new(c1(b), c2(b), rtt, 4.0 * rtt))
            }
        }
    }

    /// Stable lowercase identifier — the spelling used in spec content
    /// keys and shard interchange files, so it must never change.
    pub fn key_name(&self) -> &'static str {
        match self {
            FormulaKind::Sqrt => "sqrt",
            FormulaKind::PftkStandard => "pftk-standard",
            FormulaKind::PftkSimplified => "pftk-simplified",
        }
    }

    /// Inverse of [`FormulaKind::key_name`].
    pub fn from_key_name(name: &str) -> Option<Self> {
        match name {
            "sqrt" => Some(FormulaKind::Sqrt),
            "pftk-standard" => Some(FormulaKind::PftkStandard),
            "pftk-simplified" => Some(FormulaKind::PftkSimplified),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_instances() {
        let rtt = 0.05;
        for (kind, direct) in [
            (
                FormulaKind::Sqrt,
                Box::new(Sqrt::with_rtt(rtt)) as Box<dyn ThroughputFormula>,
            ),
            (
                FormulaKind::PftkStandard,
                Box::new(PftkStandard::with_rtt(rtt)),
            ),
            (
                FormulaKind::PftkSimplified,
                Box::new(PftkSimplified::with_rtt(rtt)),
            ),
        ] {
            for &p in &[0.001, 0.01, 0.1] {
                assert!((kind.rate(p, rtt) - direct.rate(p)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rate_scales_with_rtt() {
        let k = FormulaKind::PftkSimplified;
        assert!(k.rate(0.01, 0.05) > k.rate(0.01, 0.1));
    }

    #[test]
    #[should_panic(expected = "rtt")]
    fn zero_rtt_rejected() {
        FormulaKind::Sqrt.rate(0.01, 0.0);
    }
}
