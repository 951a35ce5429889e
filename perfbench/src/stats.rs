//! The benchmark's own arithmetic: medians, quartiles, the tail-percentile
//! rule, per-call rates and the metric-name grammar.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` (0–100) of `values`, the
/// "inclusive" definition: the minimum is the 0th percentile and the
/// maximum the 100th.
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (its default "exclusive" method), which is how run-to-run
/// spread is judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    // Python: j = i·m // 4 clamped to 1..=n−1, delta = i·m − 4·j (after the
    // clamp, so tiny samples extrapolate), then interpolate data[j−1]..data[j].
    let n = v.len() as i64;
    let m = n + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest percentile that still has at least `beyond` samples above
/// it in a sample of `n`, never below the median: `max(50, 100·(1 − beyond/n))`.
pub fn tail_percentile(n: usize, beyond: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    (100.0 * (1.0 - beyond as f64 / n as f64)).max(50.0)
}

/// Median of per-call rates over calls given as `(units, seconds)`. Unlike
/// [`pooled_rate`], one preempted call moves it by at most one rank.
pub fn median_rate(calls: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = calls.iter().map(|(units, secs)| units / secs).collect();
    median(&rates)
}

/// Total units over total time.
pub fn pooled_rate(calls: &[(f64, f64)]) -> f64 {
    calls.iter().map(|c| c.0).sum::<f64>() / calls.iter().map(|c| c.1).sum::<f64>()
}

/// Metric names: 1–64 characters from `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!(close(percentile(&v, 85.0), 44.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the sample for tiny n.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 10), 90.0);
        assert!(close(tail_percentile(80, 10), 87.5));
        // 70 epochs: p85 leaves 10.5 beyond, p90 only 7.
        let p = tail_percentile(70, 10);
        assert!(p > 85.0 && p < 86.0, "{p}");
        assert!(70.0 * (1.0 - p / 100.0) >= 10.0 - 1e-9);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(8, 10), 50.0);
        assert_eq!(tail_percentile(20, 10), 50.0);
        assert_eq!(tail_percentile(0, 10), 50.0);
    }

    #[test]
    fn median_rate_ignores_one_preempted_call_pooled_rate_does_not() {
        // 900 rows per call, 20 ms per call, one call preempted for 1 s.
        let mut calls = vec![(900.0, 0.02); 9];
        calls.push((900.0, 1.0));
        assert!(close(median_rate(&calls), 45_000.0));
        let pooled = pooled_rate(&calls);
        assert!(pooled < 10_000.0, "{pooled}");
        // Without the outlier both agree.
        let steady = vec![(900.0, 0.02); 10];
        assert!(close(median_rate(&steady), pooled_rate(&steady)));
        // Calls of different sizes are compared by rate, not by time.
        assert!(close(
            median_rate(&[(100.0, 0.01), (200.0, 0.02), (300.0, 0.03)]),
            10_000.0
        ));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "fit_s",
            "tensor.matmul.enc0_fwd.gflops",
            "tabledc.epoch_ms.p50",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "fit s",
            "fit/s",
            "naïve",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "GFLOP/s", "rows/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "rows per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
