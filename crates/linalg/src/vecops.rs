//! Dense vector kernels, generic over the [`Real`] precision.
//!
//! Plain slices, no SIMD intrinsics — the hot loops here are
//! memory-bound gathers over the CSR arrays, and the compiler
//! autovectorizes the rest. Storage is `T`; every reduction returns
//! f64, accumulated in the order [`Real::sum_pairs`] fixes for `T`,
//! and every scalar argument is an f64 rounded once to `T`.

use crate::kernel::Real;

/// Dot product. Panics (debug) on length mismatch.
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    T::sum_pairs(a, b, |x, y| x * y)
}

/// Euclidean norm.
#[inline]
pub fn norm2<T: Real>(a: &[T]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Real>(alpha: f64, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    let alpha = T::from_f64(alpha);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale<T: Real>(x: &mut [T], alpha: f64) {
    let alpha = T::from_f64(alpha);
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm; returns the original norm.
/// A zero vector is left unchanged (returns 0).
pub fn normalize<T: Real>(x: &mut [T]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

/// Residual norm `‖w − λ·v‖`, computed in f64 in one fused read-only
/// pass instead of materializing the residual vector. For f64 it
/// equals `norm2` of the materialized `w − λ·v` bit for bit.
#[inline]
pub fn resid_norm<T: Real>(w: &[T], v: &[T], lambda: f64) -> f64 {
    debug_assert_eq!(w.len(), v.len());
    T::sum_pairs(w, v, |x, y| {
        let r = x - lambda * y;
        r * r
    })
    .sqrt()
}

/// Removes the component of `x` along the *unit* vector `u`:
/// `x -= (u·x) u`. Returns the removed coefficient.
pub fn project_out<T: Real>(x: &mut [T], u: &[T]) -> f64 {
    let c = dot(u, x);
    axpy(-c, u, x);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn project_out_orthogonalizes() {
        let u = {
            let mut u = vec![1.0, 1.0];
            normalize(&mut u);
            u
        };
        let mut x = vec![2.0, 0.0];
        project_out(&mut x, &u);
        assert!(dot(&x, &u).abs() < 1e-14);
    }

    #[test]
    fn f32_kernels_mirror_f64() {
        let a: Vec<f32> = vec![1.0, 2.0, 3.0];
        let b: Vec<f32> = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert!((norm2(&[3.0f32, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = vec![1.0f32, 1.0];
        axpy(2.0, &[3.0f32, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        let mut x = vec![3.0f32, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((norm2(&x) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn f32_dot_accumulates_in_f64() {
        // 2^24 + 1 is not representable in f32; an f32 accumulator
        // would stall at 2^24 long before this sum finishes
        let ones = vec![1.0f32; (1 << 24) + 64];
        let sum = dot(&ones, &ones);
        assert_eq!(sum, ones.len() as f64);
    }

    #[test]
    fn resid_norm_matches_materialized_residual() {
        // 19 elements: exercises the f32 unrolled body and the tail
        let w: Vec<f32> = (0..19).map(|i| ((i as f32) * 0.61).sin()).collect();
        let v: Vec<f32> = (0..19).map(|i| ((i as f32) * 0.37).cos()).collect();
        let lambda = 0.8125f64; // exact in f32
        let mut resid: Vec<f32> = w.clone();
        axpy(-lambda, &v, &mut resid);
        let reference = norm2(&resid);
        let fused = resid_norm(&w, &v, lambda);
        assert!((fused - reference).abs() < 1e-6, "{fused} vs {reference}");
        assert_eq!(resid_norm::<f32>(&[], &[], 1.0), 0.0);
        // f64: the fused pass is the materialized residual, bit for bit
        let w64: Vec<f64> = w.iter().map(|&x| f64::from(x) * 1.1).collect();
        let v64: Vec<f64> = v.iter().map(|&x| f64::from(x) / 3.0).collect();
        let mut r64 = w64.clone();
        axpy(-0.3, &v64, &mut r64);
        assert_eq!(resid_norm(&w64, &v64, 0.3).to_bits(), norm2(&r64).to_bits());
    }

    #[test]
    fn f32_project_out_orthogonalizes() {
        let mut u = vec![1.0f32, 1.0];
        normalize(&mut u);
        let mut x = vec![2.0f32, 0.0];
        project_out(&mut x, &u);
        assert!(dot(&x, &u).abs() < 1e-6);
    }
}
