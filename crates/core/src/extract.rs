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
//! **What it walks.** The slot-resolved body the runtime executes
//! (`inst.lowered.work.body`, [`RStmt`]/[`RExpr`]) — never the surface
//! AST. Names, scopes, shadowing and intrinsics were resolved once, by
//! `streamlin_graph::lower`; the extractor is the reference interpreter
//! ([`streamlin_graph::lower::SlotInterp`]) with the value domain swapped:
//! a `Vec` of symbolic cells in `lowered.globals` order plus a
//! `frame_slots`-sized frame, the same declared-type coercion on every
//! store, and the constants folded by the very same `bin_op`/`un_op`/
//! `MathFn::call`. Which globals `work` can write — the ones that are ⊤ (or
//! state symbols) on entry — is `streamlin_graph::analyze::written_slots`,
//! the one write-set walker over that IR.
//!
//! **Short-circuit rule.** `&&`/`||` follow [`RExpr::Binary`]'s contract:
//! a constant left operand that decides the result means the right
//! operand is *not* evaluated (its side effects do not happen); a constant
//! left operand that does not decide evaluates the right; an undecided
//! left operand evaluates the right on a cloned state and joins — exactly
//! the rule for an input-dependent `if`.
//!
//! **Frame-join rule.** A join is slot-wise over globals and frame. Frame
//! slots are reused by sibling scopes, so at a join a slot may hold a
//! different (already out-of-scope) local on each path: such a dead slot
//! joins to ⊤, never to an error — every local is re-declared before it
//! is read.

use std::collections::BTreeMap;

use streamlin_graph::analyze::written_slots;
use streamlin_graph::exec::Flow;
use streamlin_graph::ir::FilterInst;
use streamlin_graph::lower::{RExpr, RLValue, RStmt, Slot};
use streamlin_graph::value::{bin_op, flat_offset, un_op, Cell, Value};
use streamlin_lang::ast::{BinOp, DataType, UnOp};

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
    if inst.init_work.is_some() {
        return Err(NonLinear::HasInitWork);
    }
    if inst.prints {
        return Err(NonLinear::Prints);
    }
    // Standard extraction is the stateless case of the shared engine:
    // with no state slots, every global `work` writes is ⊤.
    let outputs = extract_symbolic(inst, &[])?.outputs;
    let offsets: Vec<f64> = outputs.iter().map(|(_, konst)| *konst).collect();
    Ok(LinearNode::from_coeffs(
        inst.work.peek,
        inst.work.pop,
        inst.work.push,
        |peek_idx, out_idx| {
            outputs[out_idx]
                .0
                .get(&SymKey::Peek(peek_idx))
                .copied()
                .unwrap_or(0.0)
        },
        &offsets,
    ))
}

/// One affine form taken apart: its coefficient map and its constant.
pub(crate) type Piece = (BTreeMap<SymKey, f64>, f64);

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
    let mut slots: Vec<u32> = written_slots(&inst.lowered.work.body)
        .into_iter()
        .filter_map(|s| match s {
            Slot::Global(g) => Some(g),
            Slot::Frame(_) => None,
        })
        .collect();
    slots.sort_unstable();
    slots
}

/// Symbolically executes `work` once — global slot `state_slots[k]` bound
/// to state component `k`, every other written global ⊤, the rest their
/// elaboration-time constants — checks the executed pop and push counts
/// against the declared rates, and returns the affine pieces. The engine
/// behind both extraction entry points.
pub(crate) fn extract_symbolic(
    inst: &FilterInst,
    state_slots: &[u32],
) -> Result<StatefulPieces, NonLinear> {
    let lowered = &inst.lowered;
    let written = written_globals(inst);
    let globals = lowered
        .globals
        .iter()
        .zip(0u32..)
        .map(|(name, g)| {
            SymCell::from_cell(
                &inst.state[name],
                written.binary_search(&g).is_ok(),
                state_slots.iter().position(|s| *s == g),
            )
        })
        .collect();
    let mut exec = SymExec {
        declared_peek: inst.work.peek,
        fuel: 50_000_000,
    };
    let mut st = SymState {
        globals,
        // Dead until declared: a frame slot is never read before its `Decl`.
        frame: vec![SymCell::Scalar(DataType::Int, Sym::Top); lowered.work.frame_slots],
        popcount: 0,
        pushes: Vec::new(),
    };
    exec.exec_stmts(&mut st, &lowered.work.body)?;
    if st.popcount != inst.work.pop {
        return Err(NonLinear::PopCountMismatch {
            declared: inst.work.pop,
            actual: st.popcount,
        });
    }
    if st.pushes.len() != inst.work.push {
        return Err(NonLinear::PushCountMismatch {
            declared: inst.work.push,
            actual: st.pushes.len(),
        });
    }
    let peek = inst.work.peek;
    // A form's coefficient map and float constant, or `not_affine`.
    let take_form = |sym: Sym, not_affine: NonLinear| {
        let Sym::Lin(form) = sym else {
            return Err(not_affine);
        };
        if let Some(pos) = form.max_peek().filter(|pos| *pos >= peek) {
            return Err(NonLinear::PeekOutOfRange { pos, peek });
        }
        match form.konst.as_f64() {
            Ok(konst) => Ok((form.coeffs, konst)),
            Err(_) => Err(not_affine),
        }
    };
    let mut outputs = Vec::with_capacity(st.pushes.len());
    for (index, sym) in st.pushes.into_iter().enumerate() {
        outputs.push(take_form(sym, NonLinear::PushedNonAffine { index })?);
    }
    // Final values of the state slots, in state-component order.
    let mut next_state = Vec::with_capacity(state_slots.len());
    for &g in state_slots {
        let SymCell::Scalar(_, sym) = std::mem::replace(
            &mut st.globals[g as usize],
            SymCell::Scalar(DataType::Int, Sym::Top),
        ) else {
            unreachable!("state slots are scalar globals, and a global never changes shape")
        };
        let name = &lowered.globals[g as usize];
        next_state.push(take_form(
            sym,
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

/// What a coefficient multiplies: a tape position, or — in *stateful*
/// extraction (§7.1's linear-state extension) — a component of the state
/// vector carried between firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SymKey {
    /// `peek(pos)` relative to the firing's window start.
    Peek(usize),
    /// State component `k` as of the start of the firing.
    State(usize),
}

/// An affine form `Σ coeffs[key]·value(key) + konst` over tape positions
/// (and, in stateful mode, state components) — the paper's `⟨v⃗, c⟩`.
///
/// No coefficient is ever stored as zero: every operation drops the
/// entries it cancels, so an empty map *is* a constant.
#[derive(Debug, PartialEq)]
pub(crate) struct LinForm {
    pub(crate) coeffs: BTreeMap<SymKey, f64>,
    pub(crate) konst: Value,
}

#[cfg(test)]
thread_local! {
    /// Coefficient entries written by this thread's extractions — the unit
    /// in which the tests assert extraction cost is linear in the taps.
    static COEFF_WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_coeff_writes(_n: usize) {
    #[cfg(test)]
    COEFF_WRITES.with(|c| c.set(c.get() + _n));
}

impl Clone for LinForm {
    fn clone(&self) -> Self {
        count_coeff_writes(self.coeffs.len());
        LinForm {
            coeffs: self.coeffs.clone(),
            konst: self.konst,
        }
    }
}

impl LinForm {
    fn constant(v: Value) -> Self {
        LinForm {
            coeffs: BTreeMap::new(),
            konst: v,
        }
    }

    /// The form `1·value(key) + 0.0`.
    fn unit(key: SymKey) -> Self {
        count_coeff_writes(1);
        LinForm {
            coeffs: BTreeMap::from([(key, 1.0)]),
            konst: Value::Float(0.0),
        }
    }

    fn is_const(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Largest referenced tape position, if any.
    fn max_peek(&self) -> Option<usize> {
        self.coeffs
            .keys()
            .filter_map(|k| match k {
                SymKey::Peek(p) => Some(*p),
                SymKey::State(_) => None,
            })
            .max()
    }

    /// Applies `f` to every coefficient in place, dropping those it zeroes.
    fn map_coeffs(&mut self, f: impl Fn(f64) -> f64) {
        count_coeff_writes(self.coeffs.len());
        self.coeffs.retain(|_, c| {
            *c = f(*c);
            *c != 0.0
        });
    }
}

/// The value lattice: a linear form or ⊤.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    Lin(LinForm),
    Top,
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

    /// `self ← self ⊔ other`.
    fn join(&mut self, other: &Sym) {
        if self != other {
            *self = Sym::Top;
        }
    }
}

/// A symbolic storage cell, typed like the concrete [`Cell`] it stands
/// for so stores coerce as the interpreter's do.
#[derive(Debug, Clone, PartialEq)]
enum SymCell {
    Scalar(DataType, Sym),
    Array(SymArray),
}

#[derive(Debug, Clone, PartialEq)]
struct SymArray {
    elem: DataType,
    dims: Vec<usize>,
    data: Vec<Sym>,
    /// Set once any store used a non-constant index; all reads become ⊤.
    tainted: bool,
}

impl SymCell {
    /// Converts a concrete cell (field initial value or parameter) into a
    /// symbolic one. In standard extraction, globals `work` writes are ⊤
    /// throughout: "if a filter has persistent state, all accesses to that
    /// state are marked as ⊤". Stateful extraction instead passes a state
    /// index so the field reads as a state symbol.
    fn from_cell(cell: &Cell, mutated: bool, state_index: Option<usize>) -> SymCell {
        match cell {
            Cell::Scalar(ty, v) => SymCell::Scalar(
                *ty,
                match state_index {
                    Some(k) => Sym::Lin(LinForm::unit(SymKey::State(k))),
                    None if mutated => Sym::Top,
                    None => Sym::constant(*v),
                },
            ),
            Cell::Array(a) => SymCell::Array(SymArray {
                elem: a.elem,
                dims: a.dims.clone(),
                data: if mutated {
                    vec![Sym::Top; a.data.len()]
                } else {
                    a.data.iter().map(|v| Sym::constant(*v)).collect()
                },
                tainted: mutated,
            }),
        }
    }
}

// ---- linear-form arithmetic (Figure 3-2 / Algorithm 2 cases) --------------

/// `a op b`. Both operands are consumed: sums and differences accumulate
/// into `a`'s coefficient map entry by entry, so `sum += h[i] * peek(i)`
/// costs one map operation per iteration, not a copy of `sum`.
fn sym_bin(op: BinOp, a: Sym, b: Sym) -> Sym {
    let (Sym::Lin(mut fa), Sym::Lin(fb)) = (a, b) else {
        return Sym::Top;
    };
    match op {
        BinOp::Add | BinOp::Sub => {
            let Ok(konst) = bin_op(op, fa.konst, fb.konst) else {
                return Sym::Top;
            };
            fa.konst = konst;
            count_coeff_writes(fb.coeffs.len());
            for (p, c) in fb.coeffs {
                let e = fa.coeffs.entry(p).or_insert(0.0);
                if op == BinOp::Add {
                    *e += c;
                } else {
                    *e -= c;
                }
                if *e == 0.0 {
                    fa.coeffs.remove(&p);
                }
            }
            Sym::Lin(fa)
        }
        BinOp::Mul => {
            if fa.is_const() {
                scale_form(fb, fa.konst, BinOp::Mul)
            } else if fb.is_const() {
                scale_form(fa, fb.konst, BinOp::Mul)
            } else {
                Sym::Top
            }
        }
        BinOp::Div => {
            // Only division *by* a non-zero constant is linear; a value
            // divided by an input-dependent divisor is not (§3.2 footnote).
            if fb.is_const() {
                match fb.konst.as_f64() {
                    Ok(d) if d != 0.0 => scale_form(fa, fb.konst, BinOp::Div),
                    _ => Sym::Top,
                }
            } else {
                Sym::Top
            }
        }
        // Non-linear operators require both operands constant.
        _ => match (fa.is_const(), fb.is_const()) {
            (true, true) => match bin_op(op, fa.konst, fb.konst) {
                Ok(v) => Sym::constant(v),
                Err(_) => Sym::Top,
            },
            _ => Sym::Top,
        },
    }
}

/// Scales a form by a constant (`op` is `Mul` or `Div`, constant on the
/// right).
fn scale_form(mut f: LinForm, k: Value, op: BinOp) -> Sym {
    let Ok(konst) = bin_op(op, f.konst, k) else {
        return Sym::Top;
    };
    let Ok(kf) = k.as_f64() else { return Sym::Top };
    f.konst = konst;
    f.map_coeffs(|c| if op == BinOp::Mul { c * kf } else { c / kf });
    Sym::Lin(f)
}

fn sym_un(op: UnOp, a: Sym) -> Sym {
    let Sym::Lin(mut f) = a else { return Sym::Top };
    match op {
        UnOp::Neg => {
            let Ok(konst) = un_op(op, f.konst) else {
                return Sym::Top;
            };
            f.konst = konst;
            f.map_coeffs(|c| -c);
            Sym::Lin(f)
        }
        UnOp::Not => match f.is_const() {
            true => match un_op(op, f.konst) {
                Ok(v) => Sym::constant(v),
                Err(_) => Sym::Top,
            },
            false => Sym::Top,
        },
    }
}

// ---- the symbolic executor -------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct SymState {
    /// Persistent cells, in `lowered.globals` order.
    globals: Vec<SymCell>,
    /// Frame cells, `frame_slots` of them.
    frame: Vec<SymCell>,
    popcount: usize,
    pushes: Vec<Sym>,
}

impl SymState {
    fn cell_mut(&mut self, slot: Slot) -> &mut SymCell {
        match slot {
            Slot::Global(i) => &mut self.globals[i as usize],
            Slot::Frame(i) => &mut self.frame[i as usize],
        }
    }
}

struct SymExec {
    declared_peek: usize,
    fuel: u64,
}

impl SymExec {
    fn spend(&mut self) -> Result<(), NonLinear> {
        if self.fuel == 0 {
            return Err(NonLinear::Unresolved("analysis fuel exhausted".into()));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_stmts(&mut self, st: &mut SymState, stmts: &[RStmt]) -> Result<Flow, NonLinear> {
        for s in stmts {
            if self.exec_stmt(st, s)? == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, st: &mut SymState, stmt: &RStmt) -> Result<Flow, NonLinear> {
        self.spend()?;
        match stmt {
            RStmt::Decl {
                slot,
                base,
                dims,
                init,
                ..
            } => {
                let zero = Sym::constant(Value::zero_of(*base));
                let mut sizes = Vec::with_capacity(dims.len());
                for d in dims {
                    sizes.push(self.const_index(st, d)?);
                }
                st.frame[*slot as usize] = if sizes.is_empty() {
                    SymCell::Scalar(*base, zero)
                } else {
                    SymCell::Array(SymArray {
                        elem: *base,
                        data: vec![zero; sizes.iter().product()],
                        dims: sizes,
                        tainted: false,
                    })
                };
                if let Some(e) = init {
                    let v = self.eval(st, e)?;
                    self.update(st, Slot::Frame(*slot), &[], |_| v)?;
                }
                Ok(Flow::Normal)
            }
            RStmt::Assign {
                target, op, value, ..
            } => {
                let rhs = self.eval(st, value)?;
                let (slot, idx) = target_parts(target);
                match op {
                    None => self.update(st, slot, idx, |_| rhs)?,
                    Some(op) => self.update(st, slot, idx, |cur| sym_bin(*op, cur, rhs))?,
                }
                Ok(Flow::Normal)
            }
            RStmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(st, cond)?;
                match c.as_const() {
                    Some(Value::Bool(true)) => self.exec_stmts(st, then_blk),
                    Some(Value::Bool(false)) => match else_blk {
                        Some(e) => self.exec_stmts(st, e),
                        None => Ok(Flow::Normal),
                    },
                    Some(_) => Err(NonLinear::Unsupported(
                        "branch condition is not boolean".into(),
                    )),
                    None => {
                        // Input-dependent condition: execute both sides and
                        // join under ⊔ (Algorithm 2's branch case).
                        let mut then_st = st.clone();
                        let t_flow = self.exec_stmts(&mut then_st, then_blk)?;
                        let e_flow = match else_blk {
                            Some(e) => self.exec_stmts(st, e)?,
                            None => Flow::Normal,
                        };
                        if t_flow != e_flow {
                            return Err(NonLinear::BranchMismatch(
                                "one branch returns, the other falls through".into(),
                            ));
                        }
                        join_states(st, then_st)?;
                        Ok(t_flow)
                    }
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init {
                    if self.exec_stmt(st, i)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                loop {
                    self.spend()?;
                    let go = match cond {
                        None => true,
                        Some(c) => self.const_bool(st, c)?,
                    };
                    if !go {
                        break;
                    }
                    if self.exec_stmts(st, body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                    if let Some(s) = step {
                        if self.exec_stmt(st, s)? == Flow::Return {
                            return Ok(Flow::Return);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Expr(e, _) => {
                self.eval(st, e)?;
                Ok(Flow::Normal)
            }
            RStmt::Return => Ok(Flow::Return),
        }
    }

    /// Loop conditions must resolve to constants so the loop can be fully
    /// unrolled; otherwise the filter is disregarded (§3.2).
    fn const_bool(&mut self, st: &mut SymState, e: &RExpr) -> Result<bool, NonLinear> {
        match self.eval(st, e)?.as_const() {
            Some(Value::Bool(b)) => Ok(b),
            _ => Err(NonLinear::Unresolved(
                "loop bound depends on the input or on ⊤ state".into(),
            )),
        }
    }

    fn const_index(&mut self, st: &mut SymState, e: &RExpr) -> Result<usize, NonLinear> {
        match self.eval(st, e)?.as_const() {
            Some(v) => v.as_index().map_err(|e| NonLinear::Unsupported(e.message)),
            None => Err(NonLinear::Unresolved(
                "array index or size depends on the input".into(),
            )),
        }
    }

    /// Evaluates index expressions; `None` if any is input-dependent.
    fn eval_indices(
        &mut self,
        st: &mut SymState,
        idx_exprs: &[RExpr],
    ) -> Result<Option<Vec<usize>>, NonLinear> {
        let mut idx = Vec::with_capacity(idx_exprs.len());
        for e in idx_exprs {
            match self.eval(st, e)?.as_const() {
                Some(v) => idx.push(
                    v.as_index()
                        .map_err(|e| NonLinear::Unsupported(e.message))?,
                ),
                None => return Ok(None),
            }
        }
        Ok(Some(idx))
    }

    /// Reads a scalar (no index expressions) or an array element.
    fn read(
        &mut self,
        st: &mut SymState,
        slot: Slot,
        idx_exprs: &[RExpr],
    ) -> Result<Sym, NonLinear> {
        let idx = self.eval_indices(st, idx_exprs)?;
        match st.cell_mut(slot) {
            SymCell::Scalar(_, s) if idx_exprs.is_empty() => Ok(s.clone()),
            SymCell::Array(a) if !idx_exprs.is_empty() => match idx {
                _ if a.tainted => Ok(Sym::Top),
                None => Ok(Sym::Top),
                Some(idx) => Ok(a.data[offset(&a.dims, &idx)?].clone()),
            },
            other => Err(access_error(other)),
        }
    }

    /// Replaces the value of a scalar (no index expressions) or an array
    /// element with `f(current value)`, coerced to the declared type as
    /// every store is. The current value is moved out of its cell and the
    /// result moved back, so `f` can accumulate into it in place; the index
    /// expressions are evaluated once.
    fn update(
        &mut self,
        st: &mut SymState,
        slot: Slot,
        idx_exprs: &[RExpr],
        f: impl FnOnce(Sym) -> Sym,
    ) -> Result<(), NonLinear> {
        let idx = self.eval_indices(st, idx_exprs)?;
        match st.cell_mut(slot) {
            SymCell::Scalar(ty, cur) if idx_exprs.is_empty() => {
                *cur = coerce(f(std::mem::replace(cur, Sym::Top)), *ty);
            }
            SymCell::Array(a) if !idx_exprs.is_empty() => match idx {
                None => {
                    // A store at an unknown position clobbers the whole
                    // array, conservatively.
                    a.tainted = true;
                    a.data.fill(Sym::Top);
                }
                Some(idx) => {
                    let elem = &mut a.data[offset(&a.dims, &idx)?];
                    let cur = std::mem::replace(elem, Sym::Top);
                    *elem = coerce(f(if a.tainted { Sym::Top } else { cur }), a.elem);
                }
            },
            other => return Err(access_error(other)),
        }
        Ok(())
    }

    /// `a && b` / `a || b`, under the short-circuit rule in the module
    /// docs.
    fn eval_logical(
        &mut self,
        st: &mut SymState,
        op: BinOp,
        a: &RExpr,
        b: &RExpr,
    ) -> Result<Sym, NonLinear> {
        let x = self.eval(st, a)?;
        match x.as_const() {
            // `false && _`, `true || _`: the right operand does not run.
            Some(Value::Bool(l)) if l == (op == BinOp::Or) => Ok(x),
            Some(_) => {
                let y = self.eval(st, b)?;
                Ok(sym_bin(op, x, y))
            }
            None => {
                let mut ran = st.clone();
                self.eval(&mut ran, b)?;
                join_states(st, ran)?;
                Ok(Sym::Top)
            }
        }
    }

    fn eval(&mut self, st: &mut SymState, expr: &RExpr) -> Result<Sym, NonLinear> {
        match expr {
            RExpr::Int(v) => Ok(Sym::constant(Value::Int(*v))),
            RExpr::Float(v) => Ok(Sym::constant(Value::Float(*v))),
            RExpr::Bool(v) => Ok(Sym::constant(Value::Bool(*v))),
            RExpr::Var(slot) => self.read(st, *slot, &[]),
            RExpr::Index(slot, idx) => self.read(st, *slot, idx),
            RExpr::Unary(op, e) => {
                let v = self.eval(st, e)?;
                Ok(sym_un(*op, v))
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => self.eval_logical(st, *op, a, b),
            RExpr::Binary(op, a, b) => {
                let x = self.eval(st, a)?;
                let y = self.eval(st, b)?;
                Ok(sym_bin(*op, x, y))
            }
            RExpr::Peek(i) => {
                let i = self.const_index(st, i)?;
                self.tape(st.popcount + i)
            }
            RExpr::Pop => {
                let v = self.tape(st.popcount)?;
                st.popcount += 1;
                Ok(v)
            }
            RExpr::Push(e) => {
                let v = self.eval(st, e)?;
                st.pushes.push(v);
                Ok(Sym::constant(Value::Int(0)))
            }
            RExpr::Math(f, args) => {
                // Arity was validated at lowering and never exceeds 2.
                let mut vals = [Value::Int(0); 2];
                for (val, a) in vals.iter_mut().zip(args) {
                    match self.eval(st, a)?.as_const() {
                        Some(v) => *val = v,
                        None => return Ok(Sym::Top),
                    }
                }
                match f.call(&vals[..args.len()]) {
                    Ok(v) => Ok(Sym::constant(v)),
                    Err(e) => Err(NonLinear::Unsupported(e.message)),
                }
            }
            RExpr::Print { .. } => Err(NonLinear::Prints),
            RExpr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let (slot, idx) = target_parts(target);
                let mut old = Sym::Top;
                self.update(st, slot, idx, |cur| {
                    old = cur.clone();
                    sym_bin(op, cur, Sym::constant(Value::Int(1)))
                })?;
                Ok(old)
            }
        }
    }

    /// The form `1·peek(pos)`, if `pos` is inside the declared window.
    fn tape(&self, pos: usize) -> Result<Sym, NonLinear> {
        if pos >= self.declared_peek {
            return Err(NonLinear::PeekOutOfRange {
                pos,
                peek: self.declared_peek,
            });
        }
        Ok(Sym::Lin(LinForm::unit(SymKey::Peek(pos))))
    }
}

/// The interpreter's bounds-checked row-major offset.
fn offset(dims: &[usize], idx: &[usize]) -> Result<usize, NonLinear> {
    flat_offset(dims, idx).map_err(|e| NonLinear::Unsupported(e.message))
}

/// A target's slot and index expressions (none for a scalar).
fn target_parts(lv: &RLValue) -> (Slot, &[RExpr]) {
    match lv {
        RLValue::Var(s) => (*s, &[]),
        RLValue::Index(s, idx) => (*s, idx),
    }
}

/// What a store of `v` leaves in a `ty` variable: the interpreter's
/// [`Value::coerce_to`] on the constant part (an int promotes to float). A
/// store the interpreter would refuse is ⊤.
fn coerce(v: Sym, ty: DataType) -> Sym {
    let Sym::Lin(mut f) = v else { return Sym::Top };
    match f.konst.coerce_to(ty) {
        Ok(k) if f.is_const() || ty == DataType::Float => {
            f.konst = k;
            Sym::Lin(f)
        }
        _ => Sym::Top,
    }
}

/// The error for a scalar that is indexed or an array used as a scalar
/// (the reference interpreter's wording).
fn access_error(cell: &SymCell) -> NonLinear {
    NonLinear::Unsupported(
        match cell {
            SymCell::Array(_) => "variable is an array; index it to read an element",
            SymCell::Scalar(..) => "variable is a scalar, not an array",
        }
        .into(),
    )
}

/// `a ← a ⊔ b`, slot-wise (see the frame-join rule in the module docs).
fn join_states(a: &mut SymState, b: SymState) -> Result<(), NonLinear> {
    if a.popcount != b.popcount {
        return Err(NonLinear::BranchMismatch(format!(
            "branches pop different amounts ({} vs {})",
            a.popcount, b.popcount
        )));
    }
    if a.pushes.len() != b.pushes.len() {
        return Err(NonLinear::BranchMismatch(format!(
            "branches push different amounts ({} vs {})",
            a.pushes.len(),
            b.pushes.len()
        )));
    }
    for (x, y) in a.pushes.iter_mut().zip(&b.pushes) {
        x.join(y);
    }
    let cells = a.globals.iter_mut().chain(&mut a.frame);
    for (x, y) in cells.zip(b.globals.into_iter().chain(b.frame)) {
        join_cells(x, y);
    }
    Ok(())
}

fn join_cells(a: &mut SymCell, b: SymCell) {
    match (a, b) {
        (SymCell::Scalar(ta, x), SymCell::Scalar(tb, y)) if *ta == tb => x.join(&y),
        (SymCell::Array(x), SymCell::Array(y)) if x.elem == y.elem && x.dims == y.dims => {
            x.tainted |= y.tainted;
            if x.tainted {
                x.data.fill(Sym::Top);
            } else {
                x.data.iter_mut().zip(&y.data).for_each(|(p, q)| p.join(q));
            }
        }
        // Two different locals shared the slot: whichever it was, it is
        // out of scope on the joined path.
        (SymCell::Array(x), _) => {
            x.tainted = true;
            x.data.fill(Sym::Top);
        }
        (SymCell::Scalar(_, x), _) => *x = Sym::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// left map, merge the right into it, prune zeros.
    fn by_value(op: BinOp, a: &Sym, b: &Sym) -> Sym {
        let (Sym::Lin(fa), Sym::Lin(fb)) = (a, b) else {
            return Sym::Top;
        };
        let Ok(konst) = bin_op(op, fa.konst, fb.konst) else {
            return Sym::Top;
        };
        let mut coeffs = fa.coeffs.clone();
        for (&p, &c) in &fb.coeffs {
            let e = coeffs.entry(p).or_insert(0.0);
            if op == BinOp::Add {
                *e += c;
            } else {
                *e -= c;
            }
        }
        coeffs.retain(|_, c| *c != 0.0);
        Sym::Lin(LinForm { coeffs, konst })
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
                0 => Sym::Top,
                1 => Sym::constant(Value::Int(self.next() as i64 % 5)),
                2 => Sym::constant(Value::Float((self.next() % 7) as f64 - 3.0)),
                _ => {
                    let mut coeffs = BTreeMap::new();
                    for _ in 0..self.next() % 6 {
                        let key = match self.next() % 8 {
                            k @ 0..=5 => SymKey::Peek(k as usize),
                            k => SymKey::State(k as usize - 6),
                        };
                        let c = (self.next() % 5) as f64 - 2.0;
                        if c != 0.0 {
                            coeffs.insert(key, c);
                        }
                    }
                    let konst = Value::Float((self.next() % 3) as f64);
                    Sym::Lin(LinForm { coeffs, konst })
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
                    sym_bin(op, a.clone(), b.clone()),
                    by_value(op, &a, &b),
                    "{a:?} {op:?} {b:?}"
                );
            }
            // Self-aliasing operands: `s += s` doubles, `s -= s` cancels
            // every coefficient and leaves a constant.
            assert_eq!(
                sym_bin(BinOp::Add, a.clone(), a.clone()),
                by_value(BinOp::Add, &a, &a)
            );
            let diff = sym_bin(BinOp::Sub, a.clone(), a.clone());
            assert_eq!(diff, by_value(BinOp::Sub, &a, &a));
            if let Sym::Lin(f) = diff {
                assert!(f.coeffs.is_empty(), "x - x kept entries: {f:?}");
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

    #[test]
    fn fir_4096_extracts_to_exactly_its_weights() {
        let weights: Vec<f64> = (0..4096).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let node = extract_src(FIR_SRC, "Fir", &[Value::Int(4096)]).unwrap();
        assert_eq!(node, LinearNode::fir(&weights));
    }

    #[test]
    fn extraction_work_is_linear_in_the_taps() {
        let writes = |taps: i64| {
            let inst = filter_of(FIR_SRC, "Fir", &[Value::Int(taps)]);
            COEFF_WRITES.with(|c| c.set(0));
            extract(&inst).unwrap();
            COEFF_WRITES.with(|c| c.get())
        };
        let (small, large) = (writes(1024), writes(2048));
        assert!(small >= 1024, "the tally saw {small} writes for 1024 taps");
        assert!(
            large * 10 <= small * 23,
            "doubling the taps took {small} -> {large} coefficient writes"
        );
    }
}
