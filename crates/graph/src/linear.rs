//! The linear reading of the one walk (paper §3.2, Algorithms 1 and 2).
//!
//! Extraction is symbolic execution of `work`: every value is a *linear
//! form* `⟨v⃗, c⟩` — a coefficient vector over tape positions plus a
//! constant — or ⊤ when no affine representation exists. It is not a walk
//! of its own. [`crate::analyze`]'s domain stores one value per cell, and a
//! form is one of the values it can hold, beside a concrete value, an
//! integer interval and ⊤; the linear reading of that value is the form, a
//! constant, or ⊤ since the statement at which it stopped being affine.
//! This file holds what the reading needs: the forms' arithmetic (their
//! terms are [`crate::form::Terms`]; constants are folded by the very same
//! `bin_op`/`un_op` the interpreters use), the refusals ([`NonLinear`]),
//! and the verdict elaboration stores on every filter, a [`LinearFact`]:
//! the dense rows and offsets a linear node reads, or the refusal and the
//! span of the statement that decided it.

use streamlin_lang::ast::{BinOp, UnOp};
use streamlin_lang::token::Span;

use crate::form::{count_coeff_writes, Terms};
use crate::value::{bin_op, un_op, Value};

/// Why a filter failed linear extraction. Mirrors the failure modes of
/// Algorithm 1's `fail` plus the structural preconditions.
#[derive(Debug, Clone, PartialEq)]
pub enum NonLinear {
    /// The filter has an `initWork` phase; its first firing differs from
    /// the steady state, which the stateless linear node cannot express.
    HasInitWork,
    /// The filter prints: a side effect that collapsing would erase.
    Prints,
    /// A pushed value was not an affine function of the inputs.
    PushedNonAffine {
        /// Which push (0-based).
        index: usize,
    },
    /// Executed pops differ from the declared pop rate.
    PopCountMismatch {
        /// Declared rate.
        declared: usize,
        /// Executed pops.
        actual: usize,
    },
    /// Executed pushes differ from the declared push rate.
    PushCountMismatch {
        /// Declared rate.
        declared: usize,
        /// Executed pushes.
        actual: usize,
    },
    /// A tape position at or beyond the declared peek rate was referenced.
    PeekOutOfRange {
        /// The offending position.
        pos: usize,
        /// Declared peek rate.
        peek: usize,
    },
    /// A loop bound or branch structure could not be resolved at analysis
    /// time (the paper "disregards" such filters), or a loop runs past the
    /// walk's unroll bound.
    Unresolved(String),
    /// The two sides of a branch disagree structurally (different pop or
    /// push counts), so no single linear node represents the filter.
    BranchMismatch(String),
    /// The analysis hit an evaluation error (type error, division by zero
    /// on constants, out-of-bounds array index).
    Unsupported(String),
}

impl std::fmt::Display for NonLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonLinear::HasInitWork => write!(f, "filter has an initWork phase"),
            NonLinear::Prints => write!(f, "filter prints (side effect)"),
            NonLinear::PushedNonAffine { index } => {
                write!(f, "push #{index} is not an affine function of the input")
            }
            NonLinear::PopCountMismatch { declared, actual } => {
                write!(f, "declared pop {declared} but executed {actual}")
            }
            NonLinear::PushCountMismatch { declared, actual } => {
                write!(f, "declared push {declared} but executed {actual}")
            }
            NonLinear::PeekOutOfRange { pos, peek } => {
                write!(f, "tape position {pos} referenced but peek rate is {peek}")
            }
            NonLinear::Unresolved(m) => write!(f, "unresolved control flow: {m}"),
            NonLinear::BranchMismatch(m) => write!(f, "branch mismatch: {m}"),
            NonLinear::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl std::error::Error for NonLinear {}

/// The linear verdict on a filter's `work` phase, decided by the walk at
/// elaboration ([`crate::FilterFacts::linear`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LinearFact {
    /// The filter is linear.
    Linear(LinearRows),
    /// Why it is not, and the statement that decided it (the default span
    /// for a structural precondition or a rate mismatch).
    Refused(NonLinear, Span),
}

/// A filter instance built by hand, not elaborated, was never walked.
impl Default for LinearFact {
    fn default() -> Self {
        LinearFact::Refused(NonLinear::Unresolved("not walked".into()), Span::default())
    }
}

/// A linear filter's coefficients in the layout a linear node stores:
/// one row per output, indexed by window position, and the offsets in
/// push order.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRows {
    /// Declared peek rate: the length of a row.
    pub peek: usize,
    /// Declared pop rate.
    pub pop: usize,
    /// `push × peek`, row-major: `coeffs[j * peek + i]` is the weight of
    /// `peek(i)` in output `j`.
    pub coeffs: Box<[f64]>,
    /// Output `j`'s constant at index `j`.
    pub offsets: Box<[f64]>,
}

impl LinearRows {
    /// Scatters each output's terms (keys are tape positions) into its
    /// row, once.
    pub(crate) fn from_outputs(peek: usize, pop: usize, outputs: &[Piece]) -> Self {
        let mut coeffs = vec![0.0; outputs.len() * peek];
        for (row, out) in coeffs.chunks_mut(peek.max(1)).zip(outputs) {
            out.terms().for_each(|(pos, c)| row[pos] = c);
        }
        LinearRows {
            peek,
            pop,
            coeffs: coeffs.into(),
            offsets: outputs.iter().map(|out| out.konst).collect(),
        }
    }
}

/// One affine form taken apart: its terms and its constant.
#[derive(Debug, Clone)]
pub struct Piece {
    pub(crate) terms: Terms,
    /// The constant.
    pub konst: f64,
}

impl Piece {
    /// The terms, ascending by key, each with its non-zero coefficient: a
    /// key is a tape position, or state component `k` as `peek + k`.
    pub fn terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter()
    }
}

/// The affine pieces of a walk's end state: one per output, and one per
/// state component (its end-of-firing value; none in standard
/// extraction).
#[derive(Debug, Clone)]
pub struct Pieces {
    /// Pushed values, in push order.
    pub outputs: Vec<Piece>,
    /// Final values of the state slots, in state-component order.
    pub next_state: Vec<Piece>,
}

// ---- linear forms (Figure 3-2 / Algorithm 2 cases) ---------------------------

/// An affine form `Σ c·value(key) + konst` over tape positions (and, in
/// stateful extraction, state components keyed after them) — the paper's
/// `⟨v⃗, c⟩`. The walk holds one only while it has a term: a form without
/// terms *is* a constant, and the walk holds it as one.
#[derive(Debug, PartialEq)]
pub(crate) struct LinForm {
    pub(crate) terms: Terms,
    pub(crate) konst: Value,
}

impl Clone for LinForm {
    fn clone(&self) -> Self {
        count_coeff_writes(self.terms.stored());
        LinForm {
            terms: self.terms.clone(),
            konst: self.konst,
        }
    }
}

impl LinForm {
    pub(crate) fn constant(v: Value) -> Self {
        LinForm {
            terms: Terms::Zero,
            konst: v,
        }
    }

    /// The form `1·value(key) + 0.0`.
    pub(crate) fn unit(key: usize) -> Self {
        LinForm {
            terms: Terms::unit(key),
            konst: Value::Float(0.0),
        }
    }

    pub(crate) fn is_const(&self) -> bool {
        self.terms.is_empty()
    }
}

/// `a op b` on forms; `None` if the result is not affine. Both operands
/// are consumed: sums and differences accumulate into one operand's terms
/// term by term, so `sum += h[i] * peek(i)` costs one term per iteration,
/// not a copy of `sum`.
pub(crate) fn lin_bin(op: BinOp, mut fa: LinForm, fb: LinForm) -> Option<LinForm> {
    match op {
        BinOp::Add | BinOp::Sub => {
            fa.konst = bin_op(op, fa.konst, fb.konst).ok()?;
            fa.terms.add_all(fb.terms, op == BinOp::Sub);
            Some(fa)
        }
        BinOp::Mul if fa.is_const() => scale_form(fb, fa.konst, BinOp::Mul),
        BinOp::Mul if fb.is_const() => scale_form(fa, fb.konst, BinOp::Mul),
        // Only division *by* a non-zero constant is linear; a value
        // divided by an input-dependent divisor is not (§3.2 footnote).
        BinOp::Div if fb.is_const() && fb.konst.as_f64().is_ok_and(|d| d != 0.0) => {
            scale_form(fa, fb.konst, BinOp::Div)
        }
        // Every other operator is linear only on constants, which the
        // engine folds.
        _ => None,
    }
}

/// Scales a form by a constant (`op` is `Mul` or `Div`, constant on the
/// right).
fn scale_form(mut f: LinForm, k: Value, op: BinOp) -> Option<LinForm> {
    f.konst = bin_op(op, f.konst, k).ok()?;
    let kf = k.as_f64().ok()?;
    f.terms
        .map(|c| if op == BinOp::Mul { c * kf } else { c / kf });
    Some(f)
}

/// `op a` on a form; `None` if the result is not affine.
pub(crate) fn lin_un(op: UnOp, mut f: LinForm) -> Option<LinForm> {
    match op {
        UnOp::Neg => un_op(op, f.konst).ok().map(|konst| {
            f.konst = konst;
            f.terms.map(|c| -c);
            f
        }),
        UnOp::Not => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate_named;
    use crate::form::COEFF_WRITES;

    /// The by-value arithmetic the in-place version replaced: copy the
    /// left coefficients, merge the right into them, prune zeros.
    fn by_value(op: BinOp, fa: &LinForm, fb: &LinForm) -> Option<LinForm> {
        let konst = bin_op(op, fa.konst, fb.konst).ok()?;
        let mut coeffs = [0.0; 8];
        fa.terms.iter().for_each(|(k, c)| coeffs[k] = c);
        for (k, c) in fb.terms.iter() {
            if op == BinOp::Add {
                coeffs[k] += c;
            } else {
                coeffs[k] -= c;
            }
        }
        Some(LinForm {
            terms: terms_of(&coeffs),
            konst,
        })
    }

    /// The terms with these coefficients by key, zeros absent.
    fn terms_of(coeffs: &[f64]) -> Terms {
        let mut terms = Terms::Zero;
        for (k, &c) in coeffs.iter().enumerate().filter(|(_, c)| **c != 0.0) {
            terms.add(k, c, false);
        }
        terms
    }

    /// A small deterministic generator (xorshift) for random forms.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A random operand: mostly forms over a few shared keys with
        /// small integer coefficients (so sums cancel often), sometimes a
        /// bare int or float constant.
        fn form(&mut self) -> LinForm {
            match self.next() % 9 {
                0 => LinForm::constant(Value::Int(self.next() as i64 % 5)),
                1 => LinForm::constant(Value::Float((self.next() % 7) as f64 - 3.0)),
                _ => {
                    let mut coeffs = [0.0; 8];
                    for _ in 0..self.next() % 6 {
                        coeffs[(self.next() % 8) as usize] = (self.next() % 5) as f64 - 2.0;
                    }
                    let konst = Value::Float((self.next() % 3) as f64);
                    LinForm {
                        terms: terms_of(&coeffs),
                        konst,
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_sums_equal_the_by_value_result() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let (a, b) = (rng.form(), rng.form());
            for op in [BinOp::Add, BinOp::Sub] {
                assert_eq!(
                    lin_bin(op, a.clone(), b.clone()),
                    by_value(op, &a, &b),
                    "{a:?} {op:?} {b:?}"
                );
            }
            // Self-aliasing operands: `s += s` doubles, `s -= s` cancels
            // every coefficient and leaves a constant.
            assert_eq!(
                lin_bin(BinOp::Add, a.clone(), a.clone()),
                by_value(BinOp::Add, &a, &a)
            );
            let diff = lin_bin(BinOp::Sub, a.clone(), a.clone());
            assert_eq!(diff, by_value(BinOp::Sub, &a, &a));
            if let Some(f) = diff {
                assert!(f.terms.is_empty(), "x - x kept entries: {f:?}");
            }
        }
    }

    const FIR_SRC: &str = "float->float filter Fir(int N) {
        float[N] h;
        init { for (int i = 0; i < N; i++) h[i] = 1.0 / (i + 1); }
        work peek N pop 1 push 1 {
            float sum = 0;
            for (int i = 0; i < N; i++) sum += h[i] * peek(i);
            push(sum);
            pop();
        }
    }";

    #[test]
    fn extraction_work_is_linear_in_the_taps() {
        // Positions rising, falling, and in a permuted order: each adds one
        // term per tap, whatever the order costs the form's storage. The
        // walk runs at elaboration, so elaboration is what is counted.
        for index in ["i", "N - 1 - i", "(i * 37) % N"] {
            let src = FIR_SRC.replace("peek(i)", &format!("peek({index})"));
            let program = streamlin_lang::parse(&src).unwrap();
            let writes = |taps: i64| {
                COEFF_WRITES.with(|c| c.set(0));
                let g = elaborate_named(&program, "Fir", &[Value::Int(taps)]).unwrap();
                let crate::Stream::Filter(f) = g else {
                    unreachable!()
                };
                assert!(matches!(*f.facts.linear, LinearFact::Linear(_)));
                COEFF_WRITES.with(|c| c.get())
            };
            let (small, large) = (writes(1024), writes(2048));
            assert!(small >= 1024, "peek({index}): {small} writes for 1024 taps");
            assert!(
                large * 10 <= small * 23,
                "peek({index}): doubling the taps took {small} -> {large} coefficient writes"
            );
        }
    }
}
