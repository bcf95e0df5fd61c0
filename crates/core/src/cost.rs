//! The cost model for optimization selection (paper §4.3.3).
//!
//! The selection DP compares three implementations of every stream region:
//! collapsed time-domain, collapsed frequency-domain, and uncollapsed. The
//! paper's cost functions have a per-firing overhead constant (185), a
//! per-push term (`2u`), a direct cost proportional to the non-zero
//! structure of `A`/`b` (`|{b≠0}| + 3·|{A≠0}|` — matching a code generator
//! that skips zero coefficients, Figure 5-7), an `N·lg N` frequency term,
//! and a decimation penalty `dec(s) = (o−1)(185 + 4u)`.
//!
//! The printed frequency formula in the available copy of the thesis is
//! partially corrupted, so — as REPRODUCTION.md records — we keep the published
//! structure and derive the frequency constants from *our own* executors'
//! operation counts (the paper explicitly invites this: "these cost
//! functions can be tailored to a specific architecture and code
//! generation strategy"). A calibration test asserts the estimate tracks
//! the measured FFT flops within a factor of two.

use crate::frequency::FreqStrategy;
use crate::node::Form;

/// Tunable cost constants. The defaults reproduce the paper's qualitative
/// selection decisions (FIR → frequency, Radar → partial combination
/// without frequency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-firing overhead (the paper's 185).
    pub overhead: f64,
    /// Cost per pushed item (the paper's `2u`).
    pub push_cost: f64,
    /// Cost per non-zero offset entry.
    pub nnz_b_cost: f64,
    /// Cost per non-zero matrix entry (the paper's factor 3: multiply,
    /// add, load).
    pub nnz_a_cost: f64,
    /// `N·lg N` coefficient of one real FFT of size `N`.
    pub fft_nlogn: f64,
    /// Linear (`N`) coefficient of one real FFT. With `fft_nlogn` it is
    /// fitted to the mean of the tuned real forward transform, which counts
    /// `2·N·lg N − N − 5` operations (split-radix core plus a pairwise
    /// unpack), and the inverse, `2·N·lg N − N/2 − 2` (a pairwise pack and
    /// the `1/N` scale): a frequency block runs one forward and `u` inverses.
    pub fft_linear: f64,
    /// Per-point cost of the half-complex spectral product.
    pub hc_mul: f64,
    /// Per-output cost of the decimator stage (the paper's `4u` term in
    /// `dec(s)`).
    pub decim_per_item: f64,
    /// Fixed per-block overhead of the frequency stage: input/output
    /// buffer copies, per-column buffer management and the
    /// external-library call (§4.4 describes this copy-in/copy-out
    /// interface). Calibrated against our own runtime: the measured
    /// direct/frequency multiplication crossover for the FIR benchmark
    /// sits near 32 taps (Figure 5-8 reproduction), which this constant
    /// reproduces in the model.
    pub freq_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            overhead: 185.0,
            push_cost: 2.0,
            nnz_b_cost: 1.0,
            nnz_a_cost: 3.0,
            fft_nlogn: 2.0,
            fft_linear: -0.75,
            hc_mul: 3.0,
            decim_per_item: 4.0,
            freq_overhead: 6000.0,
        }
    }
}

impl CostModel {
    /// Estimated flops of one real FFT of size `n` (tuned tier).
    pub fn fft_flops(&self, n: usize) -> f64 {
        let n_f = n as f64;
        self.fft_nlogn * n_f * (n_f.max(2.0)).log2() + self.fft_linear * n_f
    }

    /// Cost of one firing of a direct (time-domain) linear node:
    /// `185 + 2u + |{i: bᵢ≠0}| + 3·|{(i,j): Aᵢⱼ≠0}|`.
    pub fn direct_per_firing(&self, node: &impl Form) -> f64 {
        self.overhead
            + self.push_cost * node.push() as f64
            + self.nnz_b_cost * node.nnz_b() as f64
            + self.nnz_a_cost * node.nnz_a() as f64
    }

    /// Total direct cost for `firings` firings.
    pub fn direct_total(&self, node: &impl Form, firings: f64) -> f64 {
        firings * self.direct_per_firing(node)
    }

    /// Total frequency-domain cost for a node that consumes `inflow`
    /// items. The FFT stage runs once per block (`m` fresh inputs for the
    /// naive transformation, `m + e − 1` for the optimized one) regardless
    /// of the pop rate — the decimator then throws `1 − 1/o` of the output
    /// away, which is exactly why frequency replacement sours as `o` grows
    /// (the Radar effect, §5.2).
    pub fn freq_total(&self, node: &impl Form, inflow: f64, strategy: FreqStrategy) -> f64 {
        let (e, o, u) = (node.peek(), node.pop(), node.push());
        if e == 0 || u == 0 || o == 0 {
            return f64::INFINITY;
        }
        let n = streamlin_support::num::next_pow2(2 * e).max(2);
        let m = (n - 2 * e + 1) as f64;
        let advance = match strategy {
            FreqStrategy::Naive => m,
            FreqStrategy::Optimized => m + e as f64 - 1.0,
        };
        let blocks = inflow / advance;
        let pushes_per_block = u as f64 * advance;
        let per_block = self.freq_overhead
            + (u as f64 + 1.0) * self.fft_flops(n)
            + u as f64 * self.hc_mul * n as f64
            + self.push_cost * pushes_per_block;
        let fft_stage = blocks * per_block;
        // dec(s): one decimator firing per o inputs, keeping u items.
        let decim = if o > 1 {
            (inflow / o as f64) * (self.overhead + self.decim_per_item * u as f64)
        } else {
            0.0
        };
        fft_stage + decim
    }

    /// Estimated cost of **one firing** of a frequency-stage executor
    /// (one block): the per-block overhead, `u + 1` real FFTs of size
    /// `fft_n`, `u` half-complex spectral products, and the pushes. This
    /// is the per-block term of [`CostModel::freq_total`] factored out so
    /// the pipeline partitioner can weigh a frequency node by firings —
    /// the decimator stage is a separate flat node with its own cost.
    pub fn freq_firing(&self, fft_n: usize, spectra: usize, pushes: usize) -> f64 {
        self.freq_overhead
            + (spectra as f64 + 1.0) * self.fft_flops(fft_n)
            + spectra as f64 * self.hc_mul * fft_n as f64
            + self.push_cost * pushes as f64
    }

    /// Rough per-firing cost of an *interpreted* work function, for stage
    /// balancing only (never for optimization selection): the firing
    /// overhead, a per-statement interpretation charge, and a per-item
    /// charge for the peek window and pushes, which stand in for the loop
    /// trip counts the static statement count cannot see (FIR-style
    /// bodies loop over their peek window).
    pub fn interp_firing(&self, stmts: usize, peek: usize, push: usize) -> f64 {
        const PER_STMT: f64 = 8.0;
        const PER_ITEM: f64 = 6.0;
        self.overhead + PER_STMT * stmts as f64 + PER_ITEM * (peek + push) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinearNode;
    use streamlin_fft::{FftKind, RealFft};
    use streamlin_support::OpCounter;

    #[test]
    fn direct_cost_matches_published_formula() {
        let node =
            LinearNode::from_coeffs(3, 1, 2, |i, j| if i == j { 1.0 } else { 0.0 }, &[5.0, 0.0]);
        let m = CostModel::default();
        // 185 + 2*2 + 1 (one nonzero b) + 3*2 (two nonzero A entries)
        assert_eq!(m.direct_per_firing(&node), 185.0 + 4.0 + 1.0 + 6.0);
        assert_eq!(m.direct_total(&node, 10.0), 10.0 * 196.0);
    }

    #[test]
    fn fft_estimate_tracks_measured_flops() {
        let m = CostModel::default();
        for log_n in 4..11 {
            let n = 1usize << log_n;
            let fft = RealFft::new(FftKind::Tuned, n).unwrap();
            let mut ops = OpCounter::new();
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            fft.forward(&x, &mut ops);
            let measured = ops.flops() as f64;
            let estimate = m.fft_flops(n);
            assert!(
                estimate > measured / 2.0 && estimate < measured * 2.0,
                "n={n}: estimate {estimate} vs measured {measured}"
            );
        }
    }

    #[test]
    fn frequency_wins_for_large_filters_only() {
        let m = CostModel::default();
        let small = LinearNode::fir(&[1.0; 4]);
        let large = LinearNode::fir(&[1.0; 256]);
        let inflow = 10_000.0;
        assert!(
            m.freq_total(&small, inflow, FreqStrategy::Optimized) > m.direct_total(&small, inflow),
            "a 4-tap FIR should stay in the time domain"
        );
        assert!(
            m.freq_total(&large, inflow, FreqStrategy::Optimized) < m.direct_total(&large, inflow),
            "a 256-tap FIR should move to the frequency domain"
        );
    }

    #[test]
    fn pop_rate_penalizes_frequency() {
        let m = CostModel::default();
        let unit = LinearNode::from_coeffs(64, 1, 1, |_, _| 1.0, &[0.0]);
        let decim = LinearNode::from_coeffs(64, 8, 1, |_, _| 1.0, &[0.0]);
        let inflow = 8_000.0;
        // Per *consumed item* the FFT work is identical, but the direct
        // implementation fires 8x less often for the decimating node.
        let unit_ratio =
            m.freq_total(&unit, inflow, FreqStrategy::Optimized) / m.direct_total(&unit, inflow);
        let decim_ratio = m.freq_total(&decim, inflow, FreqStrategy::Optimized)
            / m.direct_total(&decim, inflow / 8.0);
        assert!(decim_ratio > unit_ratio * 4.0);
    }

    #[test]
    fn degenerate_nodes_cost_infinity_in_frequency() {
        let m = CostModel::default();
        let sink = LinearNode::new(
            streamlin_matrix::Matrix::zeros(2, 0),
            streamlin_matrix::Vector::zeros(0),
            2,
        )
        .unwrap();
        assert!(m
            .freq_total(&sink, 100.0, FreqStrategy::Naive)
            .is_infinite());
    }
}
