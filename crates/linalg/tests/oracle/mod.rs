//! The naive CSR gather: the bit-for-bit oracle for the exact kernels.
//!
//! Bounds-checked, serial, one row at a time: `z[i] = x[i] · inv[i]`
//! rounded, then summed over each row's neighbors in storage order
//! into one accumulator that starts at zero, then (symmetric operator
//! only) multiplied by the row's own `inv`. Every exact operator path —
//! single-column, batched, any pool width, the shard fallbacks — must
//! reproduce these bits. Shared by the `socmix-linalg` unit and
//! integration tests and by `socmix-core`'s SLEM tests through
//! `#[path]` includes, so there is exactly one copy.

#![allow(dead_code)] // each includer uses a different subset

use socmix_graph::Graph;

/// `1/deg(v)` (walk) or `1/√deg(v)` (symmetric); 0 for isolated nodes.
pub fn inv_scale(g: &Graph, symmetric: bool) -> Vec<f64> {
    (0..g.num_nodes())
        .map(|v| {
            let d = g.degree(v as u32);
            if d == 0 {
                0.0
            } else if symmetric {
                1.0 / (d as f64).sqrt()
            } else {
                1.0 / d as f64
            }
        })
        .collect()
}

/// Row sums `Σ_{i∼j} x[i]·inv[i]` for every row `j`.
fn row_sums(g: &Graph, inv: &[f64], x: &[f64]) -> Vec<f64> {
    let z: Vec<f64> = x.iter().zip(inv).map(|(xi, s)| xi * s).collect();
    let offsets = g.offsets();
    let targets = g.raw_targets();
    (0..g.num_nodes())
        .map(|j| {
            let mut acc = 0.0;
            for &i in &targets[offsets[j]..offsets[j + 1]] {
                acc += z[i as usize];
            }
            acc
        })
        .collect()
}

/// `y = xP` with `P = D⁻¹A`.
pub fn walk(g: &Graph, x: &[f64]) -> Vec<f64> {
    row_sums(g, &inv_scale(g, false), x)
}

/// `y = Sx` with `S = D^{-1/2} A D^{-1/2}`.
pub fn symmetric(g: &Graph, x: &[f64]) -> Vec<f64> {
    let inv = inv_scale(g, true);
    let mut y = row_sums(g, &inv, x);
    for (yj, s) in y.iter_mut().zip(&inv) {
        *yj *= s;
    }
    y
}

/// [`walk`] or [`symmetric`] applied to every active column of a
/// row-major block (`stride` entries per row, first `width` active).
/// Inactive entries of the result are zero.
pub fn block(g: &Graph, symmetric_op: bool, xs: &[f64], stride: usize, width: usize) -> Vec<f64> {
    let n = g.num_nodes();
    let mut ys = vec![0.0; n * stride];
    for c in 0..width {
        let col: Vec<f64> = (0..n).map(|i| xs[i * stride + c]).collect();
        let y = if symmetric_op {
            symmetric(g, &col)
        } else {
            walk(g, &col)
        };
        for (i, v) in y.into_iter().enumerate() {
            ys[i * stride + c] = v;
        }
    }
    ys
}
