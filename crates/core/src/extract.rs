//! Linear extraction (paper §3.2, Algorithms 1 and 2).
//!
//! A flow-sensitive symbolic execution of the work function that maps every
//! program value to a *linear form* `⟨v⃗, c⟩` — a coefficient vector over
//! tape positions plus a constant — or to ⊤ when no affine representation
//! exists. Loops with compile-time bounds are fully unrolled ("we can
//! afford to symbolically execute all loop iterations", §3.2); both sides
//! of input-dependent branches execute and join under the confluence
//! operator ⊔. If, at the end, the declared number of items was popped and
//! every pushed value is a linear form, the filter *is* linear and its
//! [`LinearNode`] is returned.
//!
//! **What is here** is a domain and two drivers. The walk itself — the
//! slot-resolved body the runtime executes (`inst.lowered.work.body`),
//! statement order, scoping, typed stores, indexing, the short-circuit and
//! branch-join rules, unrolling, fuel — is `streamlin_graph::absint::walk`,
//! the same engine the rate analysis runs on, held to the reference
//! interpreter by `tests/interp_differential.rs`. This file supplies
//! `LinDomain`: the linear forms (their terms are `form::Terms`, stored
//! by what adding one costs), their arithmetic (`sym_bin`, `sym_un`,
//! `scale_form`: constants folded by the very same `bin_op`/`un_op`/
//! `MathFn::call` the interpreters use), the confluence operator, a
//! symbolic tape, and the refusals ([`NonLinear`]) — every one of them
//! with the span of the statement that decided it. [`extract`] and
//! `state_space::extract_stateful` are that one domain under two entry
//! bindings: which globals `work` can write — the ones that are ⊤ (or
//! state symbols) on entry — is the write set the lowerer recorded
//! (`inst.lowered.work.fx.writes`); every other global is read in place
//! from its elaboration-time cell.

use streamlin_graph::absint::{walk, ACell, Domain};
use streamlin_graph::ir::FilterInst;
use streamlin_graph::lower::Slot;
use streamlin_graph::value::{bin_op, un_op, EvalError, MathFn, Value};
use streamlin_lang::ast::{BinOp, DataType, UnOp};
use streamlin_lang::token::Span;
use streamlin_matrix::{Matrix, Vector};

use crate::form::{count_coeff_writes, Terms};
use crate::node::LinearNode;

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
    /// time (the paper "disregards" such filters).
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

/// Extracts the linear node of a filter instance, or explains why it is
/// not linear.
///
/// # Errors
///
/// Returns the first [`NonLinear`] reason encountered.
///
/// # Examples
///
/// ```
/// use streamlin_core::extract::extract;
/// use streamlin_graph::elaborate::elaborate_named;
///
/// let program = streamlin_lang::parse(
///     "float->float filter Fir(int N) {
///          float[N] h;
///          init { for (int i = 0; i < N; i++) h[i] = i + 1; }
///          work push 1 pop 1 peek N {
///              float sum = 0;
///              for (int i = 0; i < N; i++) sum += h[i] * peek(i);
///              push(sum);
///              pop();
///          }
///      }",
/// )
/// .unwrap();
/// let inst = elaborate_named(&program, "Fir", &[streamlin_graph::Value::Int(3)]).unwrap();
/// let streamlin_graph::Stream::Filter(f) = inst else { unreachable!() };
/// let node = extract(&f).unwrap();
/// assert_eq!((node.peek(), node.pop(), node.push()), (3, 1, 1));
/// assert_eq!(node.coeff(2, 0), 3.0);
/// ```
pub fn extract(inst: &FilterInst) -> Result<LinearNode, NonLinear> {
    Ok(extract_at(inst)?)
}

/// A refusal without its place.
impl From<(NonLinear, Span)> for NonLinear {
    fn from((why, _): (NonLinear, Span)) -> NonLinear {
        why
    }
}

/// [`extract`], with where the refusal was decided: the statement at
/// which the offending value first went ⊤, or at which the walk stopped
/// (the default span for a structural precondition or a rate mismatch).
pub(crate) fn extract_at(inst: &FilterInst) -> Result<LinearNode, (NonLinear, Span)> {
    if inst.init_work.is_some() {
        return Err((NonLinear::HasInitWork, Span::default()));
    }
    // Standard extraction is the stateless binding of the one domain:
    // with no state slots, every global `work` writes is ⊤.
    let outputs = extract_symbolic(inst, &[])?.outputs;
    // Each output's terms scattered into its row once; with no state,
    // every key is a tape position.
    let mut rows = Matrix::zeros(inst.work.push, inst.work.peek);
    for (j, (terms, _)) in outputs.iter().enumerate() {
        terms.iter().for_each(|(pos, c)| rows[(j, pos)] = c);
    }
    let offsets = outputs.iter().map(|(_, konst)| *konst).collect::<Vec<_>>();
    Ok(LinearNode::from_rows(
        rows,
        Vector::from(offsets),
        inst.work.pop,
    ))
}

/// One affine form taken apart: its terms and its constant.
pub(crate) type Piece = (Terms, f64);

/// The affine pieces of an extraction: one per output, and one per state
/// component (its end-of-firing value; none in standard extraction).
#[derive(Debug, Clone)]
pub(crate) struct StatefulPieces {
    pub(crate) outputs: Vec<Piece>,
    pub(crate) next_state: Vec<Piece>,
}

/// The global slots `work` can write, ascending: the filter's mutable
/// state, as far as one firing to the next is concerned.
pub(crate) fn written_globals(inst: &FilterInst) -> Vec<u32> {
    // Sorted, globals first.
    (inst.lowered.work.fx.writes.iter())
        .map_while(|s| match s {
            Slot::Global(g) => Some(*g),
            Slot::Frame(_) => None,
        })
        .collect()
}

/// Symbolically executes `work` once — global slot `state_slots[k]` bound
/// to state component `k`, every other written global ⊤, the rest their
/// elaboration-time constants — checks the executed pop and push counts
/// against the declared rates, and returns the affine pieces, or the
/// refusal and its place. The driver behind both extraction entry points.
pub(crate) fn extract_symbolic(
    inst: &FilterInst,
    state_slots: &[u32],
) -> Result<StatefulPieces, (NonLinear, Span)> {
    let lowered = &inst.lowered;
    let written = written_globals(inst);
    let mut dom = LinDomain {
        declared_peek: inst.work.peek,
        // Mutable state is ⊤ from the first statement on.
        span: lowered
            .work
            .body
            .first()
            .map_or(Span::default(), |s| s.span()),
    };
    let globals = (lowered.globals.iter().zip(0u32..))
        .map(|(name, g)| {
            // "If a filter has persistent state, all accesses to that
            // state are marked as ⊤" — unless it is a state component.
            let entry = match state_slots.iter().position(|s| *s == g) {
                Some(k) => Sym::Lin(LinForm::unit(state_key(inst, k))),
                None if written.binary_search(&g).is_ok() => dom.top(),
                None => return ACell::Const(&inst.state[name]),
            };
            ACell::from_cell(&inst.state[name], |_, _| entry.clone())
        })
        .collect();
    let (frame, tape) = (lowered.work.frame_slots, SymTape::default());
    let end = walk(
        &mut dom,
        50_000_000,
        globals,
        frame,
        tape,
        &lowered.work.body,
    )
    .map_err(|why| (why, dom.span))?;
    if end.tape.popcount != inst.work.pop {
        let (declared, actual) = (inst.work.pop, end.tape.popcount);
        return Err((
            NonLinear::PopCountMismatch { declared, actual },
            Span::default(),
        ));
    }
    if end.tape.pushes.len() != inst.work.push {
        let (declared, actual) = (inst.work.push, end.tape.pushes.len());
        return Err((
            NonLinear::PushCountMismatch { declared, actual },
            Span::default(),
        ));
    }
    // A form's coefficient map and float constant, or `not_affine` at the
    // place it stopped being one.
    let take_form = |sym: Sym, not_affine: NonLinear| match sym {
        Sym::Lin(form) => match form.konst.as_f64() {
            Ok(konst) => Ok((form.terms, konst)),
            Err(_) => Err((not_affine, Span::default())),
        },
        Sym::Top(at) => Err((not_affine, at)),
    };
    let mut outputs = Vec::with_capacity(end.tape.pushes.len());
    for (index, sym) in end.tape.pushes.into_iter().enumerate() {
        outputs.push(take_form(sym, NonLinear::PushedNonAffine { index })?);
    }
    // Final values of the state slots, in state-component order.
    let mut next_state = Vec::with_capacity(state_slots.len());
    for &g in state_slots {
        let ACell::Scalar(_, sym) = &end.globals[g as usize] else {
            unreachable!("state slots are written scalar globals")
        };
        let name = &lowered.globals[g as usize];
        next_state.push(take_form(
            sym.clone(),
            NonLinear::Unsupported(format!(
                "final value of field `{name}` is not an affine function of inputs and state"
            )),
        )?);
    }
    Ok(StatefulPieces {
        outputs,
        next_state,
    })
}

// ---- symbolic values ------------------------------------------------------

/// The key of state component `k`. A coefficient multiplies a tape
/// position `p < peek` (key `p`) or, in *stateful* extraction (§7.1's
/// linear-state extension), a component of the state vector carried
/// between firings, keyed after every position.
fn state_key(inst: &FilterInst, k: usize) -> usize {
    inst.work.peek + k
}

/// An affine form `Σ c·value(key) + konst` over tape positions (and, in
/// stateful mode, state components) — the paper's `⟨v⃗, c⟩`. A form
/// without terms *is* a constant.
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
    fn constant(v: Value) -> Self {
        LinForm {
            terms: Terms::Zero,
            konst: v,
        }
    }

    /// The form `1·value(key) + 0.0`.
    fn unit(key: usize) -> Self {
        LinForm {
            terms: Terms::unit(key),
            konst: Value::Float(0.0),
        }
    }

    fn is_const(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The value lattice: a linear form, or ⊤ with the span of the statement
/// at which the value stopped being one (the default span: ⊤ on entry).
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    Lin(LinForm),
    Top(Span),
}

impl Sym {
    fn constant(v: Value) -> Self {
        Sym::Lin(LinForm::constant(v))
    }

    fn as_const(&self) -> Option<Value> {
        match self {
            Sym::Lin(f) if f.is_const() => Some(f.konst),
            _ => None,
        }
    }
}

// ---- linear-form arithmetic (Figure 3-2 / Algorithm 2 cases) --------------

/// `a op b`; a result that is not affine is ⊤ `at` the statement in hand,
/// a ⊤ operand stays where it was. Both operands are consumed: sums and
/// differences accumulate into one operand's terms term by term, so
/// `sum += h[i] * peek(i)` costs one term per iteration, not a copy of
/// `sum`.
fn sym_bin(op: BinOp, a: Sym, b: Sym, at: Span) -> Sym {
    match (a, b) {
        (Sym::Lin(fa), Sym::Lin(fb)) => lin_bin(op, fa, fb).map_or(Sym::Top(at), Sym::Lin),
        (Sym::Top(at), _) | (_, Sym::Top(at)) => Sym::Top(at),
    }
}

fn lin_bin(op: BinOp, mut fa: LinForm, fb: LinForm) -> Option<LinForm> {
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

fn sym_un(op: UnOp, a: Sym, at: Span) -> Sym {
    let Sym::Lin(mut f) = a else { return a };
    let r = match op {
        UnOp::Neg => un_op(op, f.konst).ok().map(|konst| {
            f.konst = konst;
            f.terms.map(|c| -c);
            f
        }),
        UnOp::Not => None,
    };
    r.map_or(Sym::Top(at), Sym::Lin)
}

// ---- the linear-form domain -------------------------------------------------

/// The symbolic tape: pops so far, and what was pushed.
#[derive(Debug, Clone, Default)]
struct SymTape {
    popcount: usize,
    pushes: Vec<Sym>,
}

/// Algorithm 2's value domain for [`streamlin_graph::absint::walk`].
/// Stateless and stateful extraction are this one domain under different
/// entry bindings ([`extract_symbolic`]).
struct LinDomain {
    declared_peek: usize,
    /// Span of the statement in hand: where a fresh ⊤ is stamped, and
    /// where a stopped walk stopped.
    span: Span,
}

impl LinDomain {
    /// The form `1·peek(pos)`, if `pos` is inside the declared window.
    fn tape(&self, pos: usize) -> Result<Sym, NonLinear> {
        if pos >= self.declared_peek {
            return Err(NonLinear::PeekOutOfRange {
                pos,
                peek: self.declared_peek,
            });
        }
        Ok(Sym::Lin(LinForm::unit(pos)))
    }
}

fn unsupported(e: EvalError) -> NonLinear {
    NonLinear::Unsupported(e.message)
}

impl Domain for LinDomain {
    type Value = Sym;
    type Tape = SymTape;
    type Stop = NonLinear;

    fn at(&mut self, span: Span, _conditional: bool) {
        self.span = span;
    }

    fn literal(&mut self, v: Value) -> Sym {
        Sym::constant(v)
    }

    fn top(&mut self) -> Sym {
        Sym::Top(self.span)
    }

    fn concrete(&mut self, v: &Sym) -> Option<Value> {
        v.as_const()
    }

    fn un_op(&mut self, op: UnOp, a: Sym) -> Sym {
        sym_un(op, a, self.span)
    }

    fn bin_op(&mut self, op: BinOp, a: Sym, b: Sym) -> Sym {
        sym_bin(op, a, b, self.span)
    }

    /// An intrinsic of anything but constants is ⊤.
    fn math(&mut self, _f: MathFn, args: &[Sym]) -> Sym {
        let was_top = args.iter().find(|a| matches!(a, Sym::Top(_)));
        was_top.cloned().unwrap_or(Sym::Top(self.span))
    }

    /// The interpreter's [`Value::coerce_to`] on the constant part (an int
    /// promotes to float). A store the interpreter would refuse is ⊤.
    fn coerce(&mut self, v: Sym, ty: DataType) -> Result<Sym, NonLinear> {
        let Sym::Lin(mut f) = v else { return Ok(v) };
        Ok(match f.konst.coerce_to(ty) {
            Ok(k) if f.is_const() || ty == DataType::Float => {
                f.konst = k;
                Sym::Lin(f)
            }
            _ => Sym::Top(self.span),
        })
    }

    /// The confluence operator ⊔: equal forms stay, anything else is ⊤.
    fn join(&mut self, a: &mut Sym, b: &Sym) {
        match (&*a, b) {
            (Sym::Top(_), _) => {}
            (_, Sym::Top(_)) => *a = b.clone(),
            (x, y) if x == y => {}
            _ => *a = Sym::Top(self.span),
        }
    }

    /// The two sides of a branch must agree structurally, or no single
    /// linear node represents the filter.
    fn join_tapes(&mut self, a: &mut SymTape, b: SymTape) -> Result<(), NonLinear> {
        for (what, x, y) in [
            ("pop", a.popcount, b.popcount),
            ("push", a.pushes.len(), b.pushes.len()),
        ] {
            if x != y {
                return Err(NonLinear::BranchMismatch(format!(
                    "branches {what} different amounts ({x} vs {y})"
                )));
            }
        }
        for (x, y) in a.pushes.iter_mut().zip(&b.pushes) {
            self.join(x, y);
        }
        Ok(())
    }

    fn peek(&mut self, tape: &mut SymTape, i: Sym) -> Result<Sym, NonLinear> {
        match i.as_const() {
            Some(i) => self.tape(tape.popcount + i.as_index().map_err(unsupported)?),
            None => Err(self.give_up("array index or size depends on the input")),
        }
    }

    fn pop(&mut self, tape: &mut SymTape) -> Result<Sym, NonLinear> {
        let v = self.tape(tape.popcount)?;
        tape.popcount += 1;
        Ok(v)
    }

    fn push(&mut self, tape: &mut SymTape, v: Sym) -> Result<(), NonLinear> {
        tape.pushes.push(v);
        Ok(())
    }

    /// A side effect that collapsing would erase.
    fn print(&mut self, _v: Sym, _newline: bool) -> Result<(), NonLinear> {
        Err(NonLinear::Prints)
    }

    fn fault(&mut self, e: EvalError) -> NonLinear {
        unsupported(e)
    }

    /// Loop conditions must resolve to constants so the loop can be fully
    /// unrolled, and so must sizes; otherwise the filter is disregarded
    /// (§3.2).
    fn give_up(&mut self, why: &'static str) -> NonLinear {
        NonLinear::Unresolved(why.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::COEFF_WRITES;
    use streamlin_graph::elaborate::elaborate_named;
    use streamlin_graph::ir::Stream;

    fn filter_of(src: &str, name: &str, args: &[Value]) -> std::rc::Rc<FilterInst> {
        let p = streamlin_lang::parse(src).unwrap();
        let Stream::Filter(f) = elaborate_named(&p, name, args).unwrap() else {
            panic!("{name} is not a filter");
        };
        f
    }

    fn extract_src(src: &str, name: &str, args: &[Value]) -> Result<LinearNode, NonLinear> {
        extract(&filter_of(src, name, args))
    }

    #[test]
    fn figure_3_1_example_filter() {
        let node = extract_src(
            "float->float filter ExampleFilter {
                work peek 3 pop 1 push 2 {
                    push(3*peek(2) + 5*peek(1));
                    push(2*peek(2) + peek(0) + 6);
                    pop();
                }
            }",
            "ExampleFilter",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (3, 1, 2));
        assert_eq!(node.a().row(0), &[2.0, 3.0]);
        assert_eq!(node.a().row(1), &[0.0, 5.0]);
        assert_eq!(node.a().row(2), &[1.0, 0.0]);
        assert_eq!(node.b().as_slice(), &[6.0, 0.0]);
    }

    #[test]
    fn fir_filter_with_init_weights() {
        let node = extract_src(
            "float->float filter LowPass(int N) {
                float[N] h;
                init { for (int i=0; i<N; i++) h[i] = 1.0 / (i + 1); }
                work peek N pop 1 push 1 {
                    float sum = 0;
                    for (int i=0; i<N; i++) sum += h[i] * peek(i);
                    push(sum);
                    pop();
                }
            }",
            "LowPass",
            &[Value::Int(4)],
        )
        .unwrap();
        assert_eq!(node.peek(), 4);
        for i in 0..4 {
            assert!((node.coeff(i, 0) - 1.0 / (i as f64 + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn compressor_is_linear() {
        let node = extract_src(
            "float->float filter Compressor(int M) {
                work peek M pop M push 1 {
                    push(pop());
                    for (int i=0; i<(M-1); i++) pop();
                }
            }",
            "Compressor",
            &[Value::Int(3)],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (3, 3, 1));
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.coeff(1, 0), 0.0);
    }

    #[test]
    fn expander_is_linear() {
        let node = extract_src(
            "float->float filter Expander(int L) {
                work peek 1 pop 1 push L {
                    push(pop());
                    for (int i=0; i<(L-1); i++) push(0);
                }
            }",
            "Expander",
            &[Value::Int(3)],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (1, 1, 3));
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.coeff(0, 1), 0.0);
        assert_eq!(node.coeff(0, 2), 0.0);
    }

    #[test]
    fn threshold_detector_is_nonlinear() {
        // Both branches push, but different values: the join is ⊤.
        let err = extract_src(
            "float->float filter Detect(float t) {
                work pop 1 push 1 {
                    float v = pop();
                    if (v > t) { push(1); } else { push(0); }
                }
            }",
            "Detect",
            &[Value::Float(0.5)],
        )
        .unwrap_err();
        assert!(
            matches!(err, NonLinear::PushedNonAffine { index: 0 }),
            "{err}"
        );
    }

    #[test]
    fn equal_pushes_across_branches_stay_linear() {
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 {
                    float v = pop();
                    if (v > 0) { push(2 * v); } else { push(v + v); }
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 2.0);
    }

    #[test]
    fn branch_pop_mismatch_fails() {
        let err = extract_src(
            "float->float filter F {
                work peek 2 pop 2 push 1 {
                    push(peek(0));
                    if (peek(1) > 0) { pop(); pop(); } else { pop(); }
                }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::BranchMismatch(_)), "{err}");
    }

    #[test]
    fn stateful_source_is_nonlinear() {
        let err = extract_src(
            "void->float filter Src {
                float x;
                init { x = 0; }
                work push 1 { push(x++); }
            }",
            "Src",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn delay_filter_is_nonlinear() {
        let err = extract_src(
            "float->float filter Delay {
                float s;
                work pop 1 push 1 { push(s); s = pop(); }
            }",
            "Delay",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn product_of_inputs_is_nonlinear() {
        let err = extract_src(
            "float->float filter Sq {
                work peek 2 pop 1 push 1 { push(peek(0) * peek(1)); pop(); }
            }",
            "Sq",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn division_by_constant_is_linear() {
        let node = extract_src(
            "float->float filter Half {
                work pop 1 push 1 { push(pop() / 2.0); }
            }",
            "Half",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 0.5);
    }

    #[test]
    fn division_by_input_is_nonlinear() {
        let err = extract_src(
            "float->float filter F {
                work peek 2 pop 2 push 1 { push(peek(0) / peek(1)); pop(); pop(); }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn printing_filter_is_nonlinear() {
        let err = extract_src(
            "float->void filter Printer { work pop 1 { println(pop()); } }",
            "Printer",
            &[],
        )
        .unwrap_err();
        assert_eq!(err, NonLinear::Prints);
    }

    #[test]
    fn pure_sink_is_linear_with_zero_push() {
        let node = extract_src(
            "float->void filter Sink { work pop 1 { pop(); } }",
            "Sink",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (1, 1, 0));
    }

    // Provable rate/bounds violations are rejected by the abstract
    // interpreter at elaboration (with source spans) before extraction
    // ever sees the filter; the symbolic executor's own mismatch guards
    // (`PopCountMismatch` & co.) remain as defense-in-depth for
    // programmatically built instances.
    fn elab_err(src: &str, name: &str) -> String {
        let p = streamlin_lang::parse(src).unwrap();
        match elaborate_named(&p, name, &[]) {
            Ok(_) => panic!("expected elaboration to fail"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn pop_count_mismatch_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work peek 2 pop 2 push 1 { push(pop()); } }",
            "F",
        );
        assert!(
            err.contains("declared pop rate is 2 but the body always pops 1"),
            "{err}"
        );
        assert!(err.contains("at 1:"), "expected a source span: {err}");
    }

    #[test]
    fn push_count_mismatch_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work pop 1 push 2 { push(pop()); } }",
            "F",
        );
        assert!(
            err.contains("declared push rate is 2 but the body always pushes 1"),
            "{err}"
        );
    }

    #[test]
    fn peek_beyond_declared_rate_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work peek 2 pop 1 push 1 { push(peek(2)); pop(); } }",
            "F",
        );
        assert!(
            err.contains("peek(2) after 0 pops reads past the declared peek window of 2"),
            "{err}"
        );
    }

    #[test]
    fn input_dependent_loop_bound_fails() {
        let err = extract_src(
            "float->float filter F {
                work pop 1 push 1 {
                    float v = pop();
                    float acc = 0;
                    int i = 0;
                    while (i < v) { acc += 1; i++; }
                    push(acc);
                }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::Unresolved(_)), "{err}");
    }

    #[test]
    fn branch_consistent_array_writes_stay_linear() {
        let node = extract_src(
            "float->float filter F {
                work peek 1 pop 1 push 1 {
                    float[2] t;
                    t[0] = 3 * peek(0);
                    t[1] = t[0] + 1;
                    push(t[1]);
                    pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 3.0);
        assert_eq!(node.offset(0), 1.0);
    }

    #[test]
    fn init_work_filters_are_rejected() {
        let err = extract_src(
            "float->float filter F {
                initWork pop 1 push 1 { push(pop()); }
                work pop 1 push 1 { push(2 * pop()); }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert_eq!(err, NonLinear::HasInitWork);
    }

    #[test]
    fn constant_source_is_linear() {
        let node = extract_src(
            "void->float filter One { work push 1 { push(1.5); } }",
            "One",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (0, 0, 1));
        assert_eq!(node.offset(0), 1.5);
    }

    #[test]
    fn extraction_matches_definition_on_fire() {
        // The extracted node must reproduce the work function's output.
        let node = extract_src(
            "float->float filter F {
                work peek 4 pop 2 push 2 {
                    push(0.5*peek(3) - 2*peek(0) + 1);
                    push(peek(1) + peek(2));
                    pop(); pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        let w = [1.0, 10.0, 100.0, 1000.0];
        let out = node.fire(&w);
        assert_eq!(out, vec![0.5 * 1000.0 - 2.0 + 1.0, 10.0 + 100.0]);
    }

    #[test]
    fn constant_folding_through_math_calls() {
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 { push(cos(0.0) * pop() + sqrt(4.0)); }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.offset(0), 2.0);
    }

    #[test]
    fn math_call_on_input_is_top() {
        let err = extract_src(
            "float->float filter F { work pop 1 push 1 { push(sin(pop())); } }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }));
    }

    #[test]
    fn multiplication_by_zero_cancels_input_dependence() {
        // 0 * peek(0) has an empty coefficient vector: the result is a
        // constant and the filter remains linear (prune semantics).
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 { push(0 * peek(0) + pop()); }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
    }

    // ---- in-place form arithmetic --------------------------------------

    /// The by-value arithmetic the in-place version replaced: copy the
    /// left coefficients, merge the right into them, prune zeros.
    fn by_value(op: BinOp, a: &Sym, b: &Sym) -> Sym {
        let (Sym::Lin(fa), Sym::Lin(fb)) = (a, b) else {
            return Sym::Top(Span::default());
        };
        let Ok(konst) = bin_op(op, fa.konst, fb.konst) else {
            return Sym::Top(Span::default());
        };
        let mut coeffs = [0.0; 8];
        fa.terms.iter().for_each(|(k, c)| coeffs[k] = c);
        for (k, c) in fb.terms.iter() {
            if op == BinOp::Add {
                coeffs[k] += c;
            } else {
                coeffs[k] -= c;
            }
        }
        Sym::Lin(LinForm {
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
        /// bare int or float constant, sometimes ⊤.
        fn sym(&mut self) -> Sym {
            match self.next() % 10 {
                0 => Sym::Top(Span::default()),
                1 => Sym::constant(Value::Int(self.next() as i64 % 5)),
                2 => Sym::constant(Value::Float((self.next() % 7) as f64 - 3.0)),
                _ => {
                    let mut coeffs = [0.0; 8];
                    for _ in 0..self.next() % 6 {
                        coeffs[(self.next() % 8) as usize] = (self.next() % 5) as f64 - 2.0;
                    }
                    let konst = Value::Float((self.next() % 3) as f64);
                    Sym::Lin(LinForm {
                        terms: terms_of(&coeffs),
                        konst,
                    })
                }
            }
        }
    }

    #[test]
    fn in_place_sums_equal_the_by_value_result() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let (a, b) = (rng.sym(), rng.sym());
            for op in [BinOp::Add, BinOp::Sub] {
                assert_eq!(
                    sym_bin(op, a.clone(), b.clone(), Span::default()),
                    by_value(op, &a, &b),
                    "{a:?} {op:?} {b:?}"
                );
            }
            // Self-aliasing operands: `s += s` doubles, `s -= s` cancels
            // every coefficient and leaves a constant.
            assert_eq!(
                sym_bin(BinOp::Add, a.clone(), a.clone(), Span::default()),
                by_value(BinOp::Add, &a, &a)
            );
            let diff = sym_bin(BinOp::Sub, a.clone(), a.clone(), Span::default());
            assert_eq!(diff, by_value(BinOp::Sub, &a, &a));
            if let Sym::Lin(f) = diff {
                assert!(f.terms.is_empty(), "x - x kept entries: {f:?}");
            }
        }
    }

    #[test]
    fn compound_assignment_through_a_program() {
        // `s += s` reads the target on both sides; `t -= t` must leave a
        // constant; an int constant accumulates into a float form.
        let node = extract_src(
            "float->float filter F {
                work peek 2 pop 1 push 3 {
                    float s = 3 * peek(0) + peek(1);
                    s += s;
                    push(s);
                    float t = peek(1);
                    t -= t;
                    t += 2;
                    push(t);
                    float[2] a;
                    a[1] = peek(0);
                    a[1] -= 4 * peek(1);
                    a[1]++;
                    push(a[1]);
                    pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!((node.coeff(0, 0), node.coeff(1, 0)), (6.0, 2.0));
        assert_eq!((node.coeff(0, 1), node.coeff(1, 1)), (0.0, 0.0));
        assert_eq!(node.offset(1), 2.0);
        assert_eq!((node.coeff(0, 2), node.coeff(1, 2)), (1.0, -4.0));
        assert_eq!(node.offset(2), 1.0);
    }

    #[test]
    fn index_expressions_of_a_compound_assignment_run_once() {
        // `a[i++] += …` advances `i` once, as in the interpreters.
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 2 {
                    float[2] a;
                    int i = 0;
                    a[i++] += pop();
                    push(a[0]);
                    push(i);
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.offset(1), 1.0);
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

    /// `FIR_SRC` reading the tape at `peek(index)` instead of `peek(i)`.
    fn fir_reading(index: &str) -> String {
        FIR_SRC.replace("peek(i)", &format!("peek({index})"))
    }

    #[test]
    fn fir_4096_extracts_to_exactly_its_weights() {
        let weights: Vec<f64> = (0..4096).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let node = extract_src(FIR_SRC, "Fir", &[Value::Int(4096)]).unwrap();
        assert_eq!(node, LinearNode::fir(&weights));
    }

    #[test]
    fn extraction_work_is_linear_in_the_taps() {
        // Positions rising, falling, and in a permuted order: each adds one
        // term per tap, whatever the order costs the form's storage.
        for index in ["i", "N - 1 - i", "(i * 37) % N"] {
            let src = fir_reading(index);
            let writes = |taps: i64| {
                let inst = filter_of(&src, "Fir", &[Value::Int(taps)]);
                COEFF_WRITES.with(|c| c.set(0));
                extract(&inst).unwrap();
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

    #[test]
    fn every_order_of_the_taps_extracts_the_same_weights() {
        let n = 1024;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reversed: Vec<f64> = (0..n).map(|p| weights[n - 1 - p]).collect();
        let mut permuted = vec![0.0; n];
        (0..n).for_each(|i| permuted[i * 37 % n] = weights[i]);
        for (index, want) in [("N - 1 - i", reversed), ("(i * 37) % N", permuted)] {
            let node = extract_src(&fir_reading(index), "Fir", &[Value::Int(n as i64)]).unwrap();
            assert_eq!(node, LinearNode::fir(&want), "peek({index})");
        }
    }
}
