//! The benchmark's own statistics: medians, tail percentiles, calibration
//! units and the success ratio.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    s[rank(s.len(), p) - 1]
}

/// Number of samples strictly above the nearest-rank position of `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it, so a tail figure never rests on a handful of
/// outliers. `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Converts one op's wall time to calibration units: the op divided by the
/// mean of its own pair of calibration runs, the one just before it and the
/// one just after it, never by a run-wide average.
pub fn cu(op_ns: u64, cal_before_ns: u64, cal_after_ns: u64) -> f64 {
    op_ns as f64 / ((cal_before_ns + cal_after_ns) as f64 / 2.0).max(1.0)
}

/// Share of attempted ops whose output matched the host reference. A trap,
/// a staging error or a mismatch is a failed op, and so is an op that never
/// produced an output to check.
pub fn ok_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (attempted - failed.min(attempted)) as f64 / attempted as f64
}

fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 90), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn cu_divides_each_op_by_its_own_pair() {
        let ops = [(300u64, 100u64, 100u64), (900, 250, 350)];
        let units: Vec<f64> = ops
            .iter()
            .map(|&(op, before, after)| cu(op, before, after))
            .collect();
        assert_eq!(units, vec![3.0, 3.0], "a slow host cancels per pair");
        assert_eq!(
            cu(5, 0, 0),
            5.0,
            "a zero calibration time cannot divide by 0"
        );
    }

    #[test]
    fn failed_ops_count_against_ok_ratio() {
        assert_eq!(ok_ratio(10, 0), 1.0);
        assert_eq!(ok_ratio(10, 1), 0.9);
        assert_eq!(ok_ratio(4, 9), 0.0);
        assert_eq!(ok_ratio(0, 0), 0.0, "no op attempted is no success");
    }
}
