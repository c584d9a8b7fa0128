//! One module per figure/table of the paper (plus ablations).
//!
//! An experiment that sweeps writes its point list once: `specs()`
//! lists each point's specs point-major through `point_specs`, and
//! `reduce()` walks the same list through `point_outputs`, which hands
//! each point back with its outputs and checks their count. Replica
//! rows pool through `pooled_row`.

pub mod ablations;
pub mod claim4;
pub mod fig01;
pub mod fig02;
pub mod fig03_04;
pub mod fig05_09;
pub mod fig06;
pub mod fig10;
pub mod fig17;
pub mod internet;
pub mod lab;
pub mod manyflow;

use crate::registry::Scale;
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};

/// A sweep's values, each with its index (which seeds its specs).
pub(crate) fn indexed<T: Copy>(values: &[T]) -> Vec<(usize, T)> {
    values.iter().copied().enumerate().collect()
}

/// Every `(a, b)` pair, `a`-major: a two-level sweep's point list.
pub(crate) fn cross<A: Copy, B: Copy>(a: impl IntoIterator<Item = A>, b: &[B]) -> Vec<(A, B)> {
    a.into_iter()
        .flat_map(|x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Every point's `per_point` specs, point-major: `spec(point, k)` for
/// `k` in `0..per_point` (a replica, a formula, a window, …).
pub(crate) fn point_specs<P: Copy>(
    points: &[P],
    per_point: usize,
    spec: impl Fn(P, usize) -> SimSpec,
) -> Vec<SimSpec> {
    let spec = &spec;
    points
        .iter()
        .flat_map(|&p| (0..per_point).map(move |k| spec(p, k)))
        .collect()
}

/// Pairs each point with its `per_point` outputs, in `point_specs`
/// order.
///
/// # Panics
/// Panics unless there are exactly `points × per_point` outputs.
pub(crate) fn point_outputs<'a, P: Copy>(
    points: &'a [P],
    per_point: usize,
    outputs: &'a [&'a SpecOutput],
) -> impl Iterator<Item = (P, &'a [&'a SpecOutput])> {
    assert_eq!(
        outputs.len(),
        points.len() * per_point,
        "grid/result length mismatch"
    );
    points.iter().copied().zip(outputs.chunks(per_point))
}

/// `lead` followed by the column means of the valid replica `rows`,
/// each summed in replica order; `None` when no row is valid.
pub(crate) fn pooled_row<R: AsRef<[f64]>>(
    lead: &[f64],
    rows: impl IntoIterator<Item = R>,
) -> Option<Vec<f64>> {
    let rows: Vec<R> = rows.into_iter().collect();
    let width = rows.first()?.as_ref().len();
    let mean = |c: usize| rows.iter().map(|r| r.as_ref()[c]).sum::<f64>() / rows.len() as f64;
    Some(lead.iter().copied().chain((0..width).map(mean)).collect())
}

/// `x` followed by each output's single scalar.
pub(crate) fn scalar_row(x: f64, outputs: &[&SpecOutput]) -> Vec<f64> {
    std::iter::once(x)
        .chain(outputs.iter().map(|o| o.scalar()))
        .collect()
}

/// One table per group of a `(group, n)` replica sweep: each point's
/// replica outputs reduce to its row in the group's table through
/// `row`, and a point without a row is skipped.
pub(crate) fn group_tables(
    scale: Scale,
    tables: impl IntoIterator<Item = Table>,
    points: &[(usize, usize)],
    outputs: &[&SpecOutput],
    row: impl Fn(usize, &[&SpecOutput]) -> Option<Vec<f64>>,
) -> Vec<Table> {
    let mut tables: Vec<Table> = tables.into_iter().collect();
    for ((group, n), outs) in point_outputs(points, scale.replica_count(), outputs) {
        if let Some(r) = row(n, outs) {
            tables[group].push_row(r);
        }
    }
    tables
}
