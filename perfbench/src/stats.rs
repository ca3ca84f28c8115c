//! Order statistics over round results.

/// The `q`-quantile (`0 <= q <= 1`) by the nearest-rank rule: the smallest
/// sample with at least `q * n` samples at or below it. Sorts `samples`.
/// Returns 0 on an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// One end-to-end metric of a run: the figure the run reports, and how the
/// metric read round by round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// The run's figure for the metric.
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub per_round: Vec<f64>,
}

pub fn summarize(value: f64, per_round: &[f64]) -> Summary {
    if per_round.is_empty() {
        return Summary { value, ..Summary::default() };
    }
    let m = median(per_round);
    let deviations: Vec<f64> = per_round.iter().map(|v| (v - m).abs()).collect();
    Summary {
        value,
        median: m,
        min: per_round.iter().copied().fold(f64::INFINITY, f64::min),
        max: per_round.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mad: median(&deviations),
        per_round: per_round.to_vec(),
    }
}

/// The indices of the smallest eighth of `times`, rounded up (at least
/// one), smallest first; ties keep their order.
pub fn fastest_eighth(times: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    order.truncate(times.len().div_ceil(8));
    order
}

/// `part / whole`, or 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// The definitions, restated on a fully sorted copy.
    fn oracle_percentile(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let at_or_below = |v: f64| s.iter().filter(|&&x| x <= v).count() as f64;
        *s.iter().find(|&&v| at_or_below(v) >= q * s.len() as f64).unwrap()
    }

    fn oracle_median(samples: &[f64]) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
    }

    #[test]
    fn helpers_agree_with_a_sorted_vector_oracle() {
        let mut rng = Rng::new(42);
        for n in [1usize, 2, 3, 7, 20, 101, 1000] {
            let samples: Vec<f64> = (0..n).map(|_| (rng.below(500) as f64) / 4.0).collect();
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                let got = percentile(&mut samples.clone(), q);
                assert_eq!(got, oracle_percentile(&samples, q), "n={n} q={q}");
            }
            assert_eq!(median(&samples), oracle_median(&samples), "n={n}");
            let s = summarize(7.0, &samples);
            assert_eq!(s.value, 7.0);
            let deviations: Vec<f64> = samples.iter().map(|v| (v - s.median).abs()).collect();
            assert_eq!(s.mad, oracle_median(&deviations));
            assert_eq!(s.min, samples.iter().copied().fold(f64::INFINITY, f64::min));
            assert_eq!(s.max, samples.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(percentile(&mut [5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&mut [5.0, 1.0, 3.0, 2.0, 4.0], 0.95), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(summarize(0.0, &[1.0, 2.0, 3.0, 4.0, 100.0]).mad, 1.0);
        assert_eq!(fastest_eighth(&[5.0, 1.0, 4.0, 1.0, 3.0, 2.0, 9.0, 8.0, 7.0]), [1, 3]);
        assert_eq!(fastest_eighth(&[2.0, 1.0]), [1]);
        assert!(fastest_eighth(&[]).is_empty());
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
