//! Convex closure via the lower convex hull.
//!
//! For a continuous function `g` on a compact interval, the convex
//! closure `g**` (the biconjugate, obtained "by applying convex
//! conjugation twice" as the paper puts it, citing Rockafellar) coincides
//! with the lower boundary of the convex hull of the graph. On a sampled
//! grid that is an Andrew-monotone-chain pass over the points — `O(n)`
//! because the abscissae are already sorted.

use crate::grid::SampledFunction;

/// Computes the convex closure `g**` of a sampled function, returned on
/// the same grid.
///
/// The closure is the largest convex function that lower-bounds `g`; on
/// the sampled points it is the lower convex hull evaluated by linear
/// interpolation between hull vertices.
pub fn convex_closure(g: &SampledFunction) -> SampledFunction {
    let n = g.len();
    // Lower hull by monotone chain over the (already x-sorted) samples.
    // `hull` holds indices of hull vertices.
    let mut hull: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // Remove b if it lies on or above the segment a–i (cross
            // product test keeps only strictly convex turns).
            let cross =
                (g.x(b) - g.x(a)) * (g.y(i) - g.y(a)) - (g.y(b) - g.y(a)) * (g.x(i) - g.x(a));
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(i);
    }
    // Evaluate the hull at every grid abscissa.
    let mut values = Vec::with_capacity(n);
    let mut seg = 0usize;
    for i in 0..n {
        let x = g.x(i);
        while seg + 1 < hull.len() - 1 && g.x(hull[seg + 1]) < x {
            seg += 1;
        }
        let (a, b) = (hull[seg], hull[(seg + 1).min(hull.len() - 1)]);
        let y = if a == b || g.x(b) == g.x(a) {
            g.y(a)
        } else {
            let t = (x - g.x(a)) / (g.x(b) - g.x(a));
            g.y(a) + t * (g.y(b) - g.y(a))
        };
        values.push(y);
    }
    SampledFunction::from_values(g.lo(), g.hi(), values)
}

/// Deviation-from-convexity ratio `r = sup_x g(x) / g**(x)` (the paper's
/// Figure 2 metric; `r = 1` iff `g` is convex on the interval).
///
/// # Panics
/// Panics if `g` takes non-positive values anywhere (the ratio is only
/// meaningful for positive functions, which `g = 1/f(1/x)` always is).
pub fn deviation_ratio(g: &SampledFunction) -> f64 {
    let closure = convex_closure(g);
    let mut r: f64 = 1.0;
    for i in 0..g.len() {
        let gv = g.y(i);
        let cv = closure.y(i);
        assert!(
            gv > 0.0 && cv > 0.0,
            "deviation ratio needs positive values"
        );
        r = r.max(gv / cv);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_convex_function_is_itself() {
        let g = SampledFunction::sample(-2.0, 2.0, 401, |x| x * x);
        let c = convex_closure(&g);
        for i in 0..g.len() {
            assert!((c.y(i) - g.y(i)).abs() < 1e-9, "i = {i}");
        }
    }

    #[test]
    fn closure_of_concave_function_is_the_chord() {
        // g(x) = -x² on [-1, 1]: closure is the chord between endpoints,
        // i.e. the constant -1.
        let g = SampledFunction::sample(-1.0, 1.0, 201, |x| -x * x);
        let c = convex_closure(&g);
        for i in 0..c.len() {
            assert!((c.y(i) - (-1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn closure_lower_bounds_g() {
        let g = SampledFunction::sample(0.1, 5.0, 500, |x| (x.sin() + 2.0) * x);
        let c = convex_closure(&g);
        for i in 0..g.len() {
            assert!(c.y(i) <= g.y(i) + 1e-9);
        }
    }

    #[test]
    fn closure_is_convex() {
        let g = SampledFunction::sample(0.0, 10.0, 300, |x| (x * 1.7).sin() + 0.3 * x);
        let c = convex_closure(&g);
        for i in 1..c.len() - 1 {
            let second = c.y(i + 1) - 2.0 * c.y(i) + c.y(i - 1);
            assert!(second >= -1e-7, "second difference {second} at {i}");
        }
    }

    #[test]
    fn ratio_is_one_for_convex() {
        let g = SampledFunction::sample(0.5, 4.0, 300, |x| x.exp());
        assert!((deviation_ratio(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_detects_small_bump() {
        // Convex baseline with a bump strong enough to flip the local
        // curvature (amplitude 0.1, sharpness 20 gives g'' < 0 near the
        // peak): ratio strictly above 1 but small.
        let g = SampledFunction::sample(0.0, 4.0, 2001, |x| {
            let base = 1.0 + (x - 2.0) * (x - 2.0);
            let bump = 0.1 * (-((x - 2.0) * (x - 2.0)) * 20.0).exp();
            base + bump
        });
        let r = deviation_ratio(&g);
        assert!(r > 1.0 && r < 1.2, "r = {r}");
    }
}
