//! The CSR gather kernels, the [`Real`] precision trait, and the
//! `SOCMIX_KERNEL` knob.
//!
//! The CSR gather `y[j] = Σ_{i∼j} z[i]` is the hardware-bound inner
//! loop of every measurement in the workspace. Every operator runs one
//! of three loops from this module:
//!
//! - `f64::gather_rows` ([`Real::gather_rows`]) — the exact
//!   single-column gather: one row at a time, one accumulator,
//!   neighbors in storage (= ascending column) order, with unchecked
//!   indexing justified by the CSR invariants.
//! - `gather_rows_multi_f64` — the exact multi-column gather behind
//!   [`MultiLinearOp::apply_multi`](crate::MultiLinearOp::apply_multi):
//!   per row and active column, the same multiply-then-accumulate
//!   sequence as the single-column path, so batched results are
//!   bit-for-bit equal to column-at-a-time ones.
//! - `f32::gather_rows` — single-precision gather. The f64 contract
//!   forbids reassociation, which chains every add through one
//!   ~4-cycle-latency dependency; the f32 path trades
//!   bit-reproducibility against f64 for a tolerance contract (see
//!   [`crate::power::power_iteration_mixed`]) and may therefore break
//!   the chain. On x86-64 with AVX-512F the row sum runs as 16-lane
//!   hardware gathers (`vgatherdps`), which keeps ~16 cache misses in
//!   flight per row instead of the handful the scalar load loop
//!   manages — the gather into a vector scattered across L2 is
//!   latency-bound, so that memory-level parallelism (plus halved
//!   traffic) is where the speedup comes from. Elsewhere it falls
//!   back to four independent scalar accumulators per row.
//!
//! Neither f64 loop reassociates, so exact results equal the naive
//! loop's bit for bit at every pool width (the determinism tests keep
//! that loop as their oracle). Column-tiled variants of all three
//! loops were measured slower at 100k–1M nodes and removed (see
//! EXPERIMENTS.md).
//!
//! [`KernelKind`] chooses between the exact solvers and the
//! mixed-precision ones. This is one of the workspace's designated
//! knob modules: the `SOCMIX_KERNEL` environment read lives here (and
//! only here) so the stray-env-read lint keeps every other crate
//! honest.

use socmix_graph::Graph;
use std::ops::{AddAssign, Mul, MulAssign, Range};

/// Which precision the eigensolvers run at. Only [`KernelKind::F32`]
/// changes behaviour, and only in drivers that have a mixed path
/// (`Slem`); the operators' f64 entry points always run the exact
/// gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The exact f64 gathers (the bit-for-bit reference).
    #[default]
    Exact,
    /// Mixed precision: f32 iterations with f64 polish (tolerance
    /// contract: µ within 1e-6 of the exact answer).
    F32,
}

impl KernelKind {
    /// The kind selected by the `SOCMIX_KERNEL` environment variable
    /// (`exact` or `f32`); exact when unset. Any other value warns
    /// once and falls back to exact.
    pub fn from_env() -> Self {
        kind_from_env(std::env::var("SOCMIX_KERNEL").ok().as_deref())
    }
}

fn kind_from_env(raw: Option<&str>) -> KernelKind {
    if let Some(v) = raw {
        match parse_kind(v) {
            Some(k) => return k,
            None => socmix_obs::warn_once!(
                "linalg.kernel",
                "ignoring invalid SOCMIX_KERNEL={v:?}: expected exact or f32, \
                 falling back to the exact kernel"
            ),
        }
    }
    KernelKind::Exact
}

fn parse_kind(v: &str) -> Option<KernelKind> {
    match v.trim().to_ascii_lowercase().as_str() {
        "exact" => Some(KernelKind::Exact),
        "f32" => Some(KernelKind::F32),
        _ => None,
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// The precisions the solver core runs at: `f64`, the exact
/// bit-for-bit path, and `f32`, the cheap phase of the mixed-precision
/// drivers. Sealed: exactly these two implement it.
///
/// It holds every decision that depends on precision and nothing
/// else, so the vector ops ([`crate::vecops`]), the symmetric walk and
/// deflation operators ([`crate::op`]) and the Krylov recurrence
/// ([`crate::lanczos`]) are each written once. Reductions accumulate
/// in f64 at both precisions: an f32 sum over 10⁵ terms loses ~4
/// digits, the f32 path's whole tolerance budget.
pub trait Real:
    sealed::Sealed + Copy + Default + Send + Sync + Mul<Output = Self> + AddAssign + MulAssign
{
    /// A start vector folded through the operator is kept only if its
    /// norm exceeds this; below it the fold is rounding noise.
    const START_FLOOR: f64;
    /// A Lanczos β below this means the Krylov space is exhausted at
    /// this precision: continuing would orthogonalize rounding noise.
    const BETA_FLOOR: f64;
    /// The residual level in-loop convergence tests can certify at
    /// this precision; tighter tolerances are clamped up to it.
    const TOL_FLOOR: f64;
    /// How far a deflation basis vector's norm may sit from 1 after
    /// rounding a unit vector to this precision.
    const UNIT_TOL: f64;
    /// Whether this is the exact precision, the only one the
    /// `SOCMIX_SHARDS` process backend (exact f64 bits) serves.
    const EXACT: bool;

    /// Rounds an f64 to this precision (identity for f64).
    fn from_f64(x: f64) -> Self;

    /// Widens to f64 (exact at both precisions).
    fn to_f64(self) -> f64;

    /// `Σ term(a[i], b[i])` over equal-length slices, accumulated in
    /// f64 in an order fixed by the length alone. f64 sums left to
    /// right into one accumulator, as the bit-for-bit contract
    /// requires. f32 uses eight accumulators: a single one chains every
    /// element through one ~4-cycle FP add, which made the pass cost
    /// more than the matvec it checked, and the tolerance contract
    /// permits the reassociation.
    ///
    /// The f64 order binds the exact solvers' own scalars: the
    /// projection inside every exact [`crate::DeflatedOp`] apply, the
    /// power iteration's norms and Rayleigh quotients, and Lanczos's α
    /// and β, so recorded µ bits depend on it, and
    /// [`crate::vecops::resid_norm`] promises `norm2`'s bits through
    /// it. The Lanczos reorthogonalization does not use it: its dots
    /// fold fixed row chunks (see [`crate::lanczos`]), deterministic in
    /// `n` alone but a different order.
    fn sum_pairs(a: &[Self], b: &[Self], term: impl Fn(f64, f64) -> f64) -> f64;

    /// The single-column CSR gather over `rows` of `g`: for each row
    /// `j`, `y[j - rows.start] = finish(j, Σ_{i∼j} z[i])`. A row's
    /// result depends only on the row, so pool width never changes
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics unless `z` has one entry per node and `y` one per row.
    fn gather_rows(
        g: &Graph,
        z: &[Self],
        rows: Range<usize>,
        y: &mut [Self],
        finish: impl Fn(usize, Self) -> Self,
    );
}

impl Real for f64 {
    const START_FLOOR: f64 = 1e-12;
    const BETA_FLOOR: f64 = 1e-14;
    const TOL_FLOOR: f64 = 0.0;
    const UNIT_TOL: f64 = 1e-8;
    const EXACT: bool = true;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn sum_pairs(a: &[f64], b: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
        a.iter().zip(b).map(|(x, y)| term(*x, *y)).sum()
    }

    /// Exact: the neighbors `i` in storage (ascending) order, summed
    /// left to right into one accumulator.
    fn gather_rows(
        g: &Graph,
        z: &[f64],
        rows: Range<usize>,
        y: &mut [f64],
        finish: impl Fn(usize, f64) -> f64,
    ) {
        assert_eq!(z.len(), g.num_nodes(), "one input entry per node");
        assert_eq!(y.len(), rows.len(), "one output entry per row");
        let (offsets, targets) = (g.offsets(), g.raw_targets());
        for (out, j) in y.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for k in offsets[j]..offsets[j + 1] {
                // SAFETY: `Graph::from_csr` asserts (and the binary
                // loader validates) that offsets are non-decreasing up
                // to `targets.len()`, so `k < offsets[j+1] ≤
                // targets.len()`, and that every target id is
                // `< num_nodes() = z.len()` (asserted above).
                unsafe {
                    acc += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                }
            }
            *out = finish(j, acc);
        }
    }
}

impl Real for f32 {
    // One ulp of an O(1) value in f32 is ≈1.2e-7 and the gathered
    // matvec noise sits a little above that, hence the 1e-6 floors.
    const START_FLOOR: f64 = 1e-6;
    const BETA_FLOOR: f64 = 1e-6;
    const TOL_FLOOR: f64 = 1e-6;
    const UNIT_TOL: f64 = 1e-4;
    const EXACT: bool = false;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn sum_pairs(a: &[f32], b: &[f32], term: impl Fn(f64, f64) -> f64) -> f64 {
        let mut acc = [0.0f64; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
            for (a, (x, y)) in acc.iter_mut().zip(xs.iter().zip(ys)) {
                *a += term(f64::from(*x), f64::from(*y));
            }
        }
        let mut tail = 0.0f64;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += term(f64::from(*x), f64::from(*y));
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    /// Free to reassociate: on AVX-512 hardware each row sum runs as
    /// 16-lane vector gathers (see `avx512`); elsewhere four
    /// independent accumulators per row break the FP-add latency
    /// chain. Either way the per-row instruction sequence depends only
    /// on the row.
    fn gather_rows(
        g: &Graph,
        z: &[f32],
        rows: Range<usize>,
        y: &mut [f32],
        finish: impl Fn(usize, f32) -> f32,
    ) {
        assert_eq!(z.len(), g.num_nodes(), "one input entry per node");
        assert_eq!(y.len(), rows.len(), "one output entry per row");
        let (offsets, targets) = (g.offsets(), g.raw_targets());
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            for (out, j) in y.iter_mut().zip(rows) {
                // SAFETY: `available()` just confirmed AVX-512F at
                // runtime; the `Graph` invariants (see the f64 gather)
                // give `offsets[j] ≤ offsets[j+1] ≤ targets.len()` with
                // every target id `< num_nodes() = z.len()` (asserted
                // above).
                let sum = unsafe { avx512::row_sum(targets, offsets[j], offsets[j + 1], z) };
                *out = finish(j, sum);
            }
            return;
        }
        for (out, j) in y.iter_mut().zip(rows) {
            let end = offsets[j + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut k = offsets[j];
            while k + 4 <= end {
                // SAFETY: `k+3 < offsets[j+1] ≤ targets.len()` and target
                // ids are `< num_nodes() = z.len()` (the `Graph`
                // invariants, see the f64 gather).
                unsafe {
                    a0 += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                    a1 += *z.get_unchecked(*targets.get_unchecked(k + 1) as usize);
                    a2 += *z.get_unchecked(*targets.get_unchecked(k + 2) as usize);
                    a3 += *z.get_unchecked(*targets.get_unchecked(k + 3) as usize);
                }
                k += 4;
            }
            while k < end {
                // SAFETY: same CSR bounds argument as above.
                unsafe {
                    a0 += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                }
                k += 1;
            }
            *out = finish(j, (a0 + a1) + (a2 + a3));
        }
    }
}

/// Exact multi-column gather over `rows` of `g`: per row `j`,
/// accumulates `Σ_{i∼j} x[i, c] · inv[i]` over the neighbors in
/// storage order into `y[(j - rows.start) · stride + c]` for every
/// active column `c < width`.
///
/// Per column the operation sequence is the single-column kernel's
/// (the product `x·inv` rounded, then added to one accumulator that
/// starts at zero), so column `c` of the result is bitwise the
/// single-column apply of column `c`. `y` must hold `rows.len()` rows
/// of `stride` entries.
pub(crate) fn gather_rows_multi_f64(
    g: &Graph,
    inv: &[f64],
    xs: &[f64],
    stride: usize,
    width: usize,
    rows: Range<usize>,
    y: &mut [f64],
) {
    debug_assert_eq!(y.len(), rows.len() * stride);
    let (offsets, targets) = (g.offsets(), g.raw_targets());
    let row0 = rows.start;
    for j in rows {
        let yr = &mut y[(j - row0) * stride..(j - row0) * stride + width];
        yr.fill(0.0);
        for &i in &targets[offsets[j]..offsets[j + 1]] {
            let i = i as usize;
            let d = inv[i];
            let xr = &xs[i * stride..i * stride + width];
            for c in 0..width {
                yr[c] += xr[c] * d;
            }
        }
    }
}

/// The AVX-512F row-sum kernel for the f32 gather. Compiled only
/// on x86-64 and entered only after [`avx512::available`] confirms the
/// feature at runtime; every other target takes the scalar
/// four-accumulator path.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Whether the AVX-512F gather may run. `is_x86_feature_detected!`
    /// caches the CPUID probe, so callers hoist this once per gather
    /// call, not per row.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Sums `z[targets[k] as usize]` for `k` in `s..e` using 16-lane
    /// hardware gathers with a masked tail, then one horizontal
    /// reduction. Reassociates freely — f32-contract only.
    ///
    /// # Safety
    /// The caller must guarantee that AVX-512F is available (check
    /// [`available`] first), that `s ≤ e ≤ targets.len()`, and that
    /// every `targets[s..e]` is `< z.len()`.
    #[target_feature(enable = "avx512f")]
    // SAFETY: caller contract (see `# Safety` above) — AVX-512F
    // confirmed via `available()`, `s ≤ e ≤ targets.len()`, and every
    // `targets[s..e]` indexes below `z.len()`.
    pub(super) unsafe fn row_sum(targets: &[u32], s: usize, e: usize, z: &[f32]) -> f32 {
        // SAFETY: the loads at `targets.as_ptr().add(k)` stay in
        // bounds because `k + 16 ≤ e ≤ targets.len()` (masked tail:
        // `k + popcount(m) = e`), and every gathered lane indexes
        // `z` below `z.len()` by the caller's contract.
        unsafe {
            let mut acc = _mm512_setzero_ps();
            let mut k = s;
            while k + 16 <= e {
                let idx = _mm512_loadu_si512(targets.as_ptr().add(k) as *const _);
                acc = _mm512_add_ps(acc, _mm512_i32gather_ps::<4>(idx, z.as_ptr()));
                k += 16;
            }
            if k < e {
                let m: __mmask16 = (1u16 << (e - k)) - 1;
                let idx = _mm512_maskz_loadu_epi32(m, targets.as_ptr().add(k) as *const _);
                let got = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), m, idx, z.as_ptr());
                acc = _mm512_add_ps(acc, got);
            }
            _mm512_reduce_add_ps(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use socmix_graph::{Graph, GraphBuilder};

    #[test]
    fn parse_accepts_the_two_kinds() {
        assert_eq!(parse_kind("exact"), Some(KernelKind::Exact));
        assert_eq!(parse_kind("f32"), Some(KernelKind::F32));
        assert_eq!(parse_kind("  Exact \n"), Some(KernelKind::Exact));
        assert_eq!(parse_kind("F32"), Some(KernelKind::F32));
    }

    #[test]
    fn parse_rejects_garbage_and_the_retired_kinds() {
        for bad in [
            "",
            "fast",
            "f64",
            "blocked,scalar",
            "0",
            "scalar",
            "blocked",
        ] {
            assert_eq!(parse_kind(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn env_fallback_is_exact() {
        assert_eq!(kind_from_env(None), KernelKind::Exact);
        assert_eq!(kind_from_env(Some("f32")), KernelKind::F32);
        assert_eq!(KernelKind::default(), KernelKind::Exact);
    }

    #[test]
    fn invalid_kernel_override_warns_once_and_falls_back() {
        // the warning must be visible even if the ambient SOCMIX_LOG
        // suppressed it
        socmix_obs::set_log_level(socmix_obs::Level::Warn);
        let _ = socmix_obs::take_recent_events();
        // the retired `scalar` and `blocked` kinds computed the exact
        // bits, so falling back to `Exact` keeps old settings' answers
        for v in ["scalar", "blocked", "quantum", "fast"] {
            assert_eq!(kind_from_env(Some(v)), KernelKind::Exact, "{v:?}");
        }
        let warnings: Vec<String> = socmix_obs::take_recent_events()
            .into_iter()
            .filter(|e| e.contains("invalid SOCMIX_KERNEL"))
            .collect();
        // warn_once: the first invalid value warns, later ones are
        // latched silent
        assert_eq!(warnings.len(), 1, "got {warnings:?}");
    }

    /// A tiny fixture: 5 rows with varying degrees (4, 2, 3, 2, 1).
    fn fixture() -> Graph {
        GraphBuilder::from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn gather_matches_naive_oracle_bitwise() {
        let g = fixture();
        let inv = oracle::inv_scale(&g, false);
        let x: Vec<f64> = (0..5).map(|i| 1.0 / (i as f64 + 3.7)).collect();
        let z: Vec<f64> = x.iter().zip(&inv).map(|(a, b)| a * b).collect();
        let mut y = vec![0.0; 5];
        f64::gather_rows(&g, &z, 0..5, &mut y, |_, a| a);
        for (a, b) in y.iter().zip(&oracle::walk(&g, &x)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gather_respects_row_subrange() {
        let g = fixture();
        let z = vec![1.0f64; 5];
        let mut y = vec![0.0; 2];
        f64::gather_rows(&g, &z, 1..3, &mut y, |_, a| a);
        assert_eq!(y, vec![2.0, 3.0]); // degrees of rows 1 and 2
    }

    #[test]
    fn finish_sees_absolute_row_index() {
        let g = fixture();
        let z = vec![1.0f64; 5];
        let mut y = vec![0.0; 5];
        f64::gather_rows(&g, &z, 0..5, &mut y, |j, a| a * (j + 1) as f64);
        assert_eq!(y, vec![4.0, 4.0, 9.0, 8.0, 5.0]);
    }

    #[test]
    fn f32_gather_matches_exact_sum_on_small_rows() {
        let g = fixture();
        let (offsets, targets) = (g.offsets(), g.raw_targets());
        let z: Vec<f32> = (0..5).map(|i| (i as f32 + 1.0) / 8.0).collect();
        let mut y = vec![0.0f32; 5];
        f32::gather_rows(&g, &z, 0..5, &mut y, |_, a| a);
        for (j, &v) in y.iter().enumerate() {
            let exact: f32 = targets[offsets[j]..offsets[j + 1]]
                .iter()
                .map(|&t| z[t as usize])
                .sum();
            // tiny rows: every accumulation order is exact here
            assert!((v - exact).abs() < 1e-6, "row {j}: {v} vs {exact}");
        }
    }

    /// Exercises every tail length of the AVX-512 row sum (full
    /// 16-lane chunks, masked tails of 1..=15, and rows shorter than
    /// one chunk) against a scalar reference.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_row_sum_matches_scalar_for_all_tail_lengths() {
        if !avx512::available() {
            return; // nothing to exercise on this machine
        }
        let z: Vec<f32> = (0..97)
            .map(|i| ((i * 37 + 11) % 97) as f32 / 97.0)
            .collect();
        let targets: Vec<u32> = (0..200).map(|k| ((k * 61 + 13) % 97) as u32).collect();
        for s in [0usize, 3] {
            for len in 0..=48 {
                let e = s + len;
                let exact: f64 = targets[s..e].iter().map(|&t| z[t as usize] as f64).sum();
                // SAFETY: `available()` returned true, `e ≤
                // targets.len()`, and every target id is `< 97 =
                // z.len()` by construction.
                let got = unsafe { avx512::row_sum(&targets, s, e, &z) };
                assert!(
                    (got as f64 - exact).abs() < 1e-5,
                    "s={s} len={len}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn multi_gather_matches_oracle_per_column_bitwise() {
        let g = fixture();
        let inv = oracle::inv_scale(&g, false);
        let stride = 4;
        let xs: Vec<f64> = (0..5 * stride).map(|k| (k as f64).sin()).collect();
        for width in [1, 3, 4] {
            let mut y = vec![0.0; 5 * stride];
            gather_rows_multi_f64(&g, &inv, &xs, stride, width, 0..5, &mut y);
            let want = oracle::block(&g, false, &xs, stride, width);
            for j in 0..5 {
                for c in 0..width {
                    assert_eq!(
                        y[j * stride + c].to_bits(),
                        want[j * stride + c].to_bits(),
                        "width {width} row {j} col {c}"
                    );
                }
            }
        }
    }
}
