//! Redundancy elimination (paper §4.2, Algorithm 3 and Transformation 7).
//!
//! Many linear filters recompute the same product in different firings:
//! `c·peek(p)` in this firing equals `c·peek(p − k·pop)` computed `k`
//! firings later at a lower tape position. Algorithm 3 discovers these
//! *linear computation tuples* (LCTs) by sliding the matrix over itself;
//! Transformation 7 then caches first-firing tuples in circular buffers
//! and reuses them, trading multiplications for loads/stores — which, as
//! the paper's §5.6 measures, removes multiplications but *slows the
//! program down*, a result our runtime reproduces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use streamlin_support::Tally;

use crate::node::LinearNode;

/// A reusable tuple: the product `coeff · peek(pos)` computed in the first
/// firing and referenced by up to `max_use` later firings.
#[derive(Debug, Clone, PartialEq)]
pub struct ReusedTuple {
    /// Coefficient.
    pub coeff: f64,
    /// Tape position in the firing that computes it.
    pub pos: usize,
    /// Latest future firing (relative) that reads the cached value.
    pub max_use: usize,
}

/// How one term of one output is obtained at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermSource {
    /// Compute `coeff · peek(pos)` directly (one multiply).
    Direct {
        /// Coefficient.
        coeff: f64,
        /// Tape position.
        pos: usize,
    },
    /// Read the cached value of reused tuple `reused` computed `use_ago`
    /// firings ago (no multiply).
    Cached {
        /// Index into [`RedundSpec::reused`].
        reused: usize,
        /// How many firings ago the value was produced.
        use_ago: usize,
    },
}

/// The redundancy-elimination plan for a linear node: one immutable table
/// behind an [`Arc`], which every clone of the plan and every
/// [`RedundExec`] over it shares.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundSpec {
    table: Arc<RedundTable>,
}

#[derive(Debug, PartialEq)]
struct RedundTable {
    node: LinearNode,
    reused: Vec<ReusedTuple>,
    /// Per output (in push order): the terms of its sum.
    terms: Vec<Vec<TermSource>>,
}

impl RedundSpec {
    /// Runs Algorithm 3 (`Redundant(Λ)`) and builds the execution plan.
    ///
    /// The analysis slides the matrix over `⌈e/o⌉` future firings: tuple
    /// `(A[row, col], cur·o + e − 1 − row)` (position relative to the
    /// first firing's window) is recorded for every firing `cur` in which
    /// it is still visible. Tuples computed in firing 0 and used later
    /// (`minUse = 0 ∧ maxUse > 0`) are cached; `compMap` then rewrites
    /// each current-firing term to the cached value that equals it.
    ///
    /// # Panics
    ///
    /// Panics if the node pops nothing (no sliding window to analyze).
    pub fn new(node: &LinearNode) -> Self {
        assert!(node.pop() > 0, "redundancy analysis requires pop > 0");
        let (e, o, u) = (node.peek(), node.pop(), node.push());
        let firings = e.div_ceil(o);

        // map: tuple -> set of firings (relative) that compute it.
        // Keys order by (pos, coeff bits) for determinism.
        let key = |coeff: f64, pos: usize| (pos, coeff.to_bits());
        let mut map: BTreeMap<(usize, u64), BTreeSet<usize>> = BTreeMap::new();
        for cur in 0..firings {
            for row in cur * o..e {
                for col in 0..u {
                    let c = node.a().get(row, col).expect("in range");
                    if c == 0.0 {
                        continue; // zero terms are never computed
                    }
                    let pos = cur * o + e - 1 - row;
                    map.entry(key(c, pos)).or_default().insert(cur);
                }
            }
        }
        let min_use = |t: &(usize, u64)| *map[t].iter().next().expect("non-empty");
        let max_use = |t: &(usize, u64)| *map[t].iter().next_back().expect("non-empty");

        // reused = { t : minUse(t) = 0 ∧ maxUse(t) > 0 }
        let mut reused = Vec::new();
        let mut reused_index: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        for t in map.keys() {
            if min_use(t) == 0 && max_use(t) > 0 {
                reused_index.insert(*t, reused.len());
                reused.push(ReusedTuple {
                    coeff: f64::from_bits(t.1),
                    pos: t.0,
                    max_use: max_use(t),
                });
            }
        }

        // compMap: current-firing tuple -> (cached tuple, firings ago).
        let mut comp_map: BTreeMap<(usize, u64), (usize, usize)> = BTreeMap::new();
        for (t, &r_idx) in &reused_index {
            comp_map.insert(*t, (r_idx, 0));
            for &i in &map[t] {
                if i == 0 {
                    continue;
                }
                let nt = (t.0 - i * o, t.1);
                if min_use(&nt) == 0 {
                    let better = match comp_map.get(&nt) {
                        None => true,
                        Some(&(_, existing)) => i > existing,
                    };
                    if better {
                        comp_map.insert(nt, (r_idx, i));
                    }
                }
            }
        }

        // Term plan per output, in push order.
        let mut terms = Vec::with_capacity(u);
        for j in 0..u {
            let mut list = Vec::new();
            for pos in 0..e {
                let c = node.coeff(pos, j);
                if c == 0.0 {
                    continue;
                }
                match comp_map.get(&key(c, pos)) {
                    Some(&(reused, use_ago)) => list.push(TermSource::Cached { reused, use_ago }),
                    None => list.push(TermSource::Direct { coeff: c, pos }),
                }
            }
            terms.push(list);
        }
        RedundSpec {
            table: Arc::new(RedundTable {
                node: node.clone(),
                reused,
                terms,
            }),
        }
    }

    /// The underlying node.
    pub fn node(&self) -> &LinearNode {
        &self.table.node
    }

    /// The cached tuples.
    pub fn reused(&self) -> &[ReusedTuple] {
        &self.table.reused
    }

    /// Term plans, one per output in push order.
    pub fn terms(&self) -> &[Vec<TermSource>] {
        &self.table.terms
    }

    /// The shared table — identity and bytes (coefficients, tuples and
    /// term plans, counted from their lengths) — that every clone of this
    /// plan holds.
    pub fn table(&self) -> (*const (), usize) {
        let t = &*self.table;
        let terms: usize = t.terms.iter().map(Vec::len).sum();
        let bytes = t.node.table_bytes()
            + t.reused.len() * std::mem::size_of::<ReusedTuple>()
            + terms * std::mem::size_of::<TermSource>();
        (Arc::as_ptr(&self.table).cast(), bytes)
    }

    /// Multiplications per firing under this plan: one per cached-tuple
    /// store plus one per direct term.
    pub fn mults_per_firing(&self) -> usize {
        self.reused().len()
            + self
                .terms()
                .iter()
                .flatten()
                .filter(|t| matches!(t, TermSource::Direct { .. }))
                .count()
    }

    /// Multiplications per firing of the plain direct implementation.
    pub fn direct_mults_per_firing(&self) -> usize {
        self.node().nnz_a()
    }
}

/// Runtime state for a redundancy plan (Transformation 7's `tupleState` /
/// `tupleIndex` circular buffers).
///
/// # Examples
///
/// ```
/// use streamlin_core::node::LinearNode;
/// use streamlin_core::redundancy::{RedundExec, RedundSpec};
/// use streamlin_support::OpCounter;
///
/// // The symmetric FIR of Figure 4-1: h = [2, 1, 2].
/// let node = LinearNode::fir(&[2.0, 1.0, 2.0]);
/// let spec = RedundSpec::new(&node);
/// assert!(spec.mults_per_firing() < spec.direct_mults_per_firing());
/// let mut exec = RedundExec::new(spec);
/// let mut ops = OpCounter::new();
/// let input: Vec<f64> = (0..32).map(|i| i as f64).collect();
/// assert_eq!(exec.run_over(&input, &mut ops), node.fire_sequence(&input));
/// ```
#[derive(Debug, Clone)]
pub struct RedundExec {
    spec: RedundSpec,
    /// One circular buffer per reused tuple, allocated by the first
    /// firing, so a clone of an executor that has not fired copies none.
    bufs: Vec<Vec<f64>>,
    idx: Vec<usize>,
    first: bool,
}

impl RedundExec {
    /// Creates an executor over a plan; it shares the plan's table.
    pub fn new(spec: RedundSpec) -> Self {
        RedundExec {
            spec,
            bufs: Vec::new(),
            idx: Vec::new(),
            first: true,
        }
    }

    /// The plan.
    pub fn spec(&self) -> &RedundSpec {
        &self.spec
    }

    /// Fires once on a window of `peek` items; the caller advances its
    /// tape by `pop`.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the node's peek rate.
    pub fn fire<T: Tally>(&mut self, window: &[f64], ops: &mut T) -> Vec<f64> {
        let table = &*self.spec.table;
        let node = &table.node;
        assert_eq!(window.len(), node.peek(), "window must equal the peek rate");
        let o = node.pop();

        if self.first {
            // initWork: pre-fill slots for the "virtual" firings before the
            // first one. The value firing −k would have cached for tuple t
            // is coeff·peek(t.pos − k·o) in this window's coordinates;
            // slots whose position falls before the window are never read
            // before being overwritten.
            self.bufs = (table.reused.iter())
                .map(|r| vec![0.0; r.max_use + 1])
                .collect();
            self.idx = vec![0; table.reused.len()];
            for (r, tuple) in table.reused.iter().enumerate() {
                let len = self.bufs[r].len();
                for k in 1..=tuple.max_use {
                    if tuple.pos >= k * o {
                        self.bufs[r][k % len] = ops.mul(tuple.coeff, window[tuple.pos - k * o]);
                    }
                }
            }
            self.first = false;
        }

        // Store this firing's reusable tuples.
        for (r, tuple) in table.reused.iter().enumerate() {
            let slot = self.idx[r];
            self.bufs[r][slot] = ops.mul(tuple.coeff, window[tuple.pos]);
        }

        // Assemble the outputs.
        let mut out = Vec::with_capacity(node.push());
        for (j, terms) in table.terms.iter().enumerate() {
            let b = node.offset(j);
            let mut acc = b;
            let mut have = b != 0.0;
            for t in terms {
                let v = match *t {
                    TermSource::Direct { coeff, pos } => ops.mul(coeff, window[pos]),
                    TermSource::Cached { reused, use_ago } => {
                        let len = self.bufs[reused].len();
                        self.bufs[reused][(self.idx[reused] + use_ago) % len]
                    }
                };
                if have {
                    acc = ops.add(acc, v);
                } else {
                    acc = v;
                    have = true;
                }
            }
            out.push(acc);
        }

        // Advance the circular indices.
        for (r, i) in self.idx.iter_mut().enumerate() {
            let len = self.bufs[r].len();
            *i = (*i + len - 1) % len;
        }
        out
    }

    /// Convenience: runs over an input tape with channel semantics.
    pub fn run_over<T: Tally>(&mut self, input: &[f64], ops: &mut T) -> Vec<f64> {
        let (peek, pop) = (self.spec.node().peek(), self.spec.node().pop());
        let mut out = Vec::new();
        let mut pos = 0;
        while pos + peek <= input.len() {
            out.extend(self.fire(&input[pos..pos + peek], ops));
            pos += pop;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_support::OpCounter;

    fn input(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 11 + 2) % 23) as f64 - 11.0).collect()
    }

    fn assert_equiv(node: &LinearNode) -> (u64, usize) {
        let spec = RedundSpec::new(node);
        let mut exec = RedundExec::new(spec.clone());
        let mut ops = OpCounter::new();
        let x = input(200);
        let got = exec.run_over(&x, &mut ops);
        let want = node.fire_sequence(&x);
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "mismatch at {i}: {a} vs {b}");
        }
        (ops.mults(), spec.reused().len())
    }

    #[test]
    fn figure_4_1_symmetric_fir() {
        // h = [2, 1, 2]: 2·peek(2) this firing == 2·peek(0) two firings on.
        let node = LinearNode::fir(&[2.0, 1.0, 2.0]);
        let spec = RedundSpec::new(&node);
        assert_eq!(spec.reused().len(), 1);
        let r = &spec.reused()[0];
        assert_eq!((r.coeff, r.pos, r.max_use), (2.0, 2, 2));
        // Terms: pos 0 cached (from 2 firings ago), pos 1 direct,
        // pos 2 cached (this firing).
        let terms = &spec.terms()[0];
        assert_eq!(terms.len(), 3);
        assert!(matches!(terms[0], TermSource::Cached { use_ago: 2, .. }));
        assert!(matches!(terms[1], TermSource::Direct { coeff, pos: 1 } if coeff == 1.0));
        assert!(matches!(terms[2], TermSource::Cached { use_ago: 0, .. }));
        // 2 mults/firing (store + middle term) vs 3 direct.
        assert_eq!(spec.mults_per_firing(), 2);
        assert_eq!(spec.direct_mults_per_firing(), 3);
        assert_equiv(&node);
    }

    #[test]
    fn even_symmetric_fir_reuses_everything() {
        // Even length: every coefficient pairs up, ~50% of mults removed.
        let w: Vec<f64> = vec![1.0, 2.0, 3.0, 3.0, 2.0, 1.0];
        let node = LinearNode::fir(&w);
        let spec = RedundSpec::new(&node);
        assert_eq!(spec.mults_per_firing(), 3);
        assert_eq!(spec.direct_mults_per_firing(), 6);
        assert_equiv(&node);
    }

    #[test]
    fn odd_symmetric_fir_keeps_center_term() {
        // The zig-zag of Figure 5-10: odd sizes keep the center multiply.
        let w: Vec<f64> = vec![1.0, 2.0, 9.0, 2.0, 1.0];
        let node = LinearNode::fir(&w);
        let spec = RedundSpec::new(&node);
        assert_eq!(spec.mults_per_firing(), 3); // 2 stores + center
        assert_eq!(spec.direct_mults_per_firing(), 5);
        assert_equiv(&node);
    }

    #[test]
    fn asymmetric_filter_has_no_reuse() {
        let node = LinearNode::fir(&[1.0, 2.0, 4.0, 8.0]);
        let spec = RedundSpec::new(&node);
        assert_eq!(spec.reused().len(), 0);
        assert_eq!(spec.mults_per_firing(), 4);
        assert_equiv(&node);
    }

    #[test]
    fn pop_greater_than_one_shrinks_reuse_distance() {
        // With o = 2 the window slides two positions per firing, so only
        // coefficients 2 apart can be reused.
        let node =
            LinearNode::from_coeffs(4, 2, 1, |i, _| if i % 2 == 0 { 5.0 } else { 7.0 }, &[0.0]);
        let spec = RedundSpec::new(&node);
        assert!(!spec.reused().is_empty(), "{:?}", spec.reused());
        assert_equiv(&node);
    }

    #[test]
    fn multi_output_filters_share_tuples_across_columns() {
        // The same (coeff, pos) term feeding two outputs is one tuple.
        let node =
            LinearNode::from_coeffs(3, 1, 2, |i, _| if i == 2 { 4.0 } else { 1.0 }, &[0.0, 0.0]);
        let spec = RedundSpec::new(&node);
        assert_equiv(&node);
        // Every firing: the (4.0, pos 2) tuple is shared.
        assert!(spec.mults_per_firing() < 2 * spec.direct_mults_per_firing());
    }

    #[test]
    fn offsets_are_preserved() {
        let node = LinearNode::from_coeffs(3, 1, 1, |_, _| 2.0, &[10.0]);
        assert_equiv(&node);
    }

    #[test]
    fn first_firings_use_prefilled_values() {
        // Check that the very first outputs are already correct (the
        // initWork pre-fill of Transformation 7).
        let node = LinearNode::fir(&[3.0, 1.0, 3.0]);
        let spec = RedundSpec::new(&node);
        let mut exec = RedundExec::new(spec);
        let mut ops = OpCounter::new();
        let x = [1.0, 2.0, 3.0, 4.0];
        let first = exec.fire(&x[0..3], &mut ops);
        assert_eq!(first, vec![3.0 * 1.0 + 2.0 + 3.0 * 3.0]);
        let second = exec.fire(&x[1..4], &mut ops);
        assert_eq!(second, vec![3.0 * 2.0 + 3.0 + 3.0 * 4.0]);
    }

    #[test]
    fn reuse_reduces_multiplications_at_runtime() {
        let even = LinearNode::fir(
            &(0..16)
                .map(|i| (1 + i.min(15 - i)) as f64)
                .collect::<Vec<_>>(),
        );
        let spec = RedundSpec::new(&even);
        let mut exec = RedundExec::new(spec.clone());
        let mut ops = OpCounter::new();
        let x = input(116); // exactly 100 firings + warmup window
        let outs = exec.run_over(&x, &mut ops);
        let per_firing = ops.mults() as f64 / outs.len() as f64;
        // Close to the plan's static count (pre-fill adds a few).
        assert!(per_firing < spec.direct_mults_per_firing() as f64 * 0.7);
    }
}
