//! The harness arithmetic: medians, percentiles, bound comparison and
//! `VmHWM` parsing. Pure functions, unit-tested here so a wrong number
//! in the ledger is never an arithmetic slip.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) if the sample supports it — at least
/// `MIN_BEYOND` samples lie beyond it — and the median otherwise, with
/// the quantile actually reported. A p95 of 40 samples would rest on
/// two of them; the guide's rule is ten.
pub fn supported_percentile(values: &[f64], q: f64) -> (f64, f64) {
    const MIN_BEYOND: usize = 10;
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    if v.len() - rank >= MIN_BEYOND {
        (v[rank - 1], q)
    } else {
        (median(&v), 0.5)
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better). A zero base is worse by any rise.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let rise = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if rise > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        rise / base.abs()
    }
}

/// Whether `new` stays within `bound` of `base` in the worse direction.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p95 has 50 beyond, so it is reported.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&big, 0.95), (950.0, 0.95));
        // 200 samples: exactly 10 beyond p95 — still supported.
        let edge: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&edge, 0.95), (190.0, 0.95));
        // 199 samples: 9 beyond — falls back to the median.
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(supported_percentile(&short, 0.95), (100.0, 0.5));
        // Five passes: nothing but the median is supported.
        assert_eq!(
            supported_percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.95),
            (3.0, 0.5)
        );
    }

    #[test]
    fn bound_comparison_in_both_directions() {
        // Lower is better: a rise is a worsening.
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10));
        assert!(!within_bound(10.0, 11.1, Better::Lower, 0.10));
        assert!(within_bound(10.0, 5.0, Better::Lower, 0.10));
        // Higher is better: a fall is a worsening.
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.10));
        // A bound of zero admits no rise at all, from a zero base too.
        assert!(within_bound(0.0, 0.0, Better::Lower, 0.0));
        assert!(!within_bound(0.0, 0.01, Better::Lower, 0.0));
        assert!((worsening(50.0, 55.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(50.0, 55.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tebrc\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
