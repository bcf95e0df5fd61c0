//! Order statistics, means and the seeded generator.

/// The `p`-quantile (0..=1) of `v` by nearest rank; sorts `v` in place.
/// Empty input gives NaN, which the result check reports as a failure.
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Median; for an even count the mean of the two middle values.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean: the average for per-program figures that differ by
/// orders of magnitude (Radar compiles in 37 ms, FIR in under 1 ms), so
/// one program cannot hide the others.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them: the acceptance rule for run-to-run
/// spread is written in those terms.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Run-to-run spread as a share of the median: the interquartile range,
/// or with fewer than four values (where quartiles extrapolate) the range.
pub fn rel_spread(v: &[f64]) -> f64 {
    let m = median(&mut v.to_vec()).abs();
    match v.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let (lo, hi) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(*x), hi.max(*x))
                });
            (hi - lo) / m
        }
        _ => {
            let (q1, q3) = quartiles(v);
            (q3 - q1) / m
        }
    }
}

/// SplitMix64: the whole benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&mut v.clone()), 5.5);
    }

    #[test]
    fn same_seed_same_shuffle() {
        let mut a: Vec<u32> = (0..9).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..9).collect::<Vec<_>>());
    }
}
