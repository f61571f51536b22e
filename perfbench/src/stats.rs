//! The benchmark's own statistics: medians, nearest-rank percentiles
//! with the "at least ten samples beyond" rule, and the stopping rule
//! of the timed loops.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Number of samples strictly above the nearest-rank `q`-percentile of
/// `n` samples: `n - ceil(q * n)`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The small slack keeps `0.99 * 1000` from rounding up to 991.
    ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank `q`-percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it. `None` otherwise.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// Fewest samples for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("finite")
}

/// Whether a timed loop that has run `done` units, the last taking
/// `last_s`, starts another: always below `min` units, else only if
/// the next is expected to end within `budget_s` of the loop's start.
pub fn another(done: usize, min: usize, elapsed_s: f64, last_s: f64, budget_s: f64) -> bool {
    done < min || elapsed_s + last_s <= budget_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = percentile(&xs, 0.99);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 0.99));
        assert_eq!(a, Some(1979.0));
        assert_eq!(percentile(&xs, 0.5), Some(999.0));
    }

    #[test]
    fn timed_loop_stops_before_the_budget() {
        assert!(another(0, 2, 0.0, 0.0, 0.0));
        assert!(another(1, 2, 30.0, 30.0, 40.0));
        assert!(another(2, 2, 20.0, 10.0, 40.0));
        assert!(!another(2, 2, 30.0, 15.0, 40.0));
    }
}
