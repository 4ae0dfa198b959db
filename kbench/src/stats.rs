//! Order statistics the benchmark reports, and the rule for comparing
//! the runs of a parent commit with the runs of a change.
//!
//! * A timing is reported as its median plus the highest percentile
//!   that still has at least [`MIN_BEYOND`] samples beyond it
//!   ([`tail_percentile`]), together with the sample count.
//! * Run-to-run spread is the distance between the first and third
//!   quartiles as a share of the median ([`spread`]); the quartiles are
//!   Python's `statistics.quantiles(values, n=4)` (exclusive method).
//! * A change claims a gain on a metric only when it wins at least nine
//!   tenths of the parent/change pairs, ties counting for neither side,
//!   and the medians differ by more than the parent's own quartile
//!   spread ([`compare_pairs`]).

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (0 when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A uniform random sample of at most `cap` values from a stream of any
/// length (Algorithm R), so percentiles of millions of requests cost
/// bounded memory while every kept value is one exactly as measured.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    values: Vec<f64>,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` values, sampling with a
    /// generator seeded by `seed`.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            values: Vec::new(),
            rng: Rng(seed),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(x);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.values[j] = x;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in thousandths of a percent.
const LADDER_MILLI_PCT: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// 1-based nearest rank of percentile `milli_pct` (thousandths of a
/// percent) among `n` samples: `ceil(p/100 · n)`, at least 1. Integer
/// math, so `p90` of 100 samples is exactly rank 90.
fn rank(n: usize, milli_pct: u64) -> usize {
    let r = (milli_pct * n as u64).div_ceil(100_000) as usize;
    r.clamp(1, n.max(1))
}

/// The highest percentile (in percent, e.g. `99.0`) from the ladder
/// p50, p90, p99, p99.9, p99.99 that has at least [`MIN_BEYOND`]
/// samples beyond its nearest rank among `n` samples, or `None` when
/// even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_MILLI_PCT
        .iter()
        .rev()
        .find(|&&p| n - rank(n, p).min(n) >= MIN_BEYOND)
        .map(|&p| p as f64 / 1000.0)
}

/// Nearest-rank percentile `pct` (in percent) of `values`; 0 for an
/// empty slice. Sorts a copy.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let milli = (pct * 1000.0).round() as u64;
    sorted[rank(sorted.len(), milli) - 1]
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First, second and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (method `"exclusive"`) gives
/// them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are checked against. `None` with fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much better `change` is than `parent` (positive = better).
    fn gain(self, parent: f64, change: f64) -> f64 {
        match self {
            Better::Lower => parent - change,
            Better::Higher => change - parent,
        }
    }
}

/// Outcome of comparing paired runs of a parent commit and a change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVerdict {
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the parent won.
    pub losses: usize,
    /// Pairs with identical values (count for neither side).
    pub ties: usize,
    /// Median of the parent's runs.
    pub parent_median: f64,
    /// Median of the change's runs.
    pub change_median: f64,
    /// Distance between the parent's first and third quartiles.
    pub parent_iqr: f64,
    /// True when the change wins at least nine tenths of all pairs and
    /// its median is better by more than `parent_iqr`.
    pub gain: bool,
}

impl PairVerdict {
    /// True when the change's median is worse than the parent's by more
    /// than `bound` (a share of the parent's median) — a regression.
    pub fn regressed(&self, bound: f64, better: Better) -> bool {
        -better.gain(self.parent_median, self.change_median) > bound * self.parent_median.abs()
    }
}

/// Compares paired runs (`parent[i]` with `change[i]`). Pairs beyond
/// the shorter slice are ignored. `None` with fewer than two pairs.
pub fn compare_pairs(parent: &[f64], change: &[f64], better: Better) -> Option<PairVerdict> {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let [q1, _, q3] = quartiles(parent)?;
    let (mut wins, mut losses, mut ties) = (0, 0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        let g = better.gain(p, c);
        if g > 0.0 {
            wins += 1;
        } else if g < 0.0 {
            losses += 1;
        } else {
            ties += 1;
        }
    }
    let parent_median = median(parent);
    let change_median = median(change);
    let parent_iqr = q3 - q1;
    let gain = wins * 10 >= pairs * 9 && better.gain(parent_median, change_median) > parent_iqr;
    Some(PairVerdict {
        wins,
        losses,
        ties,
        parent_median,
        change_median,
        parent_iqr,
        gain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn reservoir_keeps_everything_below_its_cap_and_a_sample_above() {
        let mut r = Reservoir::new(4, 1);
        for x in [3.0, 1.0, 2.0] {
            r.push(x);
        }
        assert_eq!(r.values(), &[3.0, 1.0, 2.0]);
        let mut r = Reservoir::new(1_000, 7);
        for x in 0..100_000 {
            r.push(f64::from(x));
        }
        assert_eq!((r.seen(), r.values().len()), (100_000, 1_000));
        // A uniform sample: its median is near the stream's.
        let m = median(r.values());
        assert!((40_000.0..60_000.0).contains(&m), "{m}");
        // Same seed, same sample.
        let mut again = Reservoir::new(1_000, 7);
        (0..100_000).for_each(|x| again.push(f64::from(x)));
        assert_eq!(again.values(), r.values());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let q = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert!(
            close(q[0], 15.0) && close(q[1], 30.0) && close(q[2], 45.0),
            "{q:?}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&v).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn pair_comparison_claims_a_clear_gain() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let change = [9.0, 9.1, 8.9, 9.2, 9.0, 9.1, 8.8, 9.0, 9.1, 9.0];
        let v = compare_pairs(&parent, &change, Better::Lower).unwrap();
        assert_eq!((v.wins, v.losses, v.ties), (10, 0, 0));
        assert!(v.gain);
        assert!(!v.regressed(0.05, Better::Lower));
        // The same numbers read as a throughput are a loss.
        let v = compare_pairs(&parent, &change, Better::Higher).unwrap();
        assert!(!v.gain);
        assert!(v.regressed(0.05, Better::Higher));
        assert!(!v.regressed(0.15, Better::Higher));
    }

    #[test]
    fn pair_comparison_needs_nine_tenths_of_the_pairs() {
        // Medians far apart, but the change wins only 8 of 10 pairs.
        let parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 1.0, 1.0];
        let change = [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0];
        let v = compare_pairs(&parent, &change, Better::Lower).unwrap();
        assert_eq!((v.wins, v.losses), (8, 2));
        assert!(!v.gain);
    }

    #[test]
    fn pair_comparison_needs_medians_beyond_the_parent_spread() {
        // Every pair won, but by less than the parent's quartile spread.
        let parent = [10.0, 12.0, 14.0, 16.0, 18.0, 10.0, 12.0, 14.0, 16.0, 18.0];
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let v = compare_pairs(&parent, &change, Better::Lower).unwrap();
        assert_eq!(v.wins, 10);
        assert!(!v.gain);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [1.0, 2.0, 3.0, 4.0];
        let v = compare_pairs(&parent, &parent, Better::Lower).unwrap();
        assert_eq!((v.wins, v.losses, v.ties), (0, 0, 4));
        assert!(!v.gain);
        assert!(!v.regressed(0.0, Better::Lower));
        assert_eq!(compare_pairs(&[1.0], &[1.0], Better::Lower), None);
    }
}
