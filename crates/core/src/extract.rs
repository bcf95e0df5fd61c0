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

use std::collections::{BTreeMap, HashMap, HashSet};

use streamlin_graph::ir::FilterInst;
use streamlin_graph::value::{bin_op, math_call, un_op, Cell, Value};
use streamlin_lang::ast::{BinOp, Block, Expr, LValue, Stmt, Type, UnOp};

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
    // with no state indices, every mutated field is ⊤.
    let outputs = extract_symbolic(inst, &HashMap::new())?.outputs;
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

/// The affine pieces of an extraction: one coefficient map + constant per
/// output, and one per state component (its end-of-firing value; none in
/// standard extraction).
#[derive(Debug, Clone)]
pub(crate) struct StatefulPieces {
    pub(crate) outputs: Vec<(BTreeMap<SymKey, f64>, f64)>,
    pub(crate) next_state: Vec<(BTreeMap<SymKey, f64>, f64)>,
}

/// Symbolically executes `work` once — mutated fields bound to the given
/// state indices (⊤ when absent) — checks the executed pop and push
/// counts against the declared rates, and returns the affine pieces. The
/// engine behind both extraction entry points.
pub(crate) fn extract_symbolic(
    inst: &FilterInst,
    state_index: &HashMap<String, usize>,
) -> Result<StatefulPieces, NonLinear> {
    let written = written_names(&inst.work.body);
    let mut env: HashMap<String, SymCell> = HashMap::new();
    for (name, cell) in &inst.state {
        let is_mutated_field = inst.field_names.contains(name) && written.contains(name.as_str());
        let idx = state_index.get(name).copied();
        env.insert(
            name.clone(),
            SymCell::from_cell(cell, is_mutated_field, idx),
        );
    }
    let mut exec = SymExec {
        declared_peek: inst.work.peek,
        fuel: 50_000_000,
    };
    let mut st = SymState {
        env,
        popcount: 0,
        pushes: Vec::new(),
    };
    exec.exec_block(&mut st, &inst.work.body)?;
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
    let SymState {
        mut env, pushes, ..
    } = st;
    let peek = inst.work.peek;
    let take_form = |sym: Sym, what: &str| -> Result<(BTreeMap<SymKey, f64>, f64), NonLinear> {
        let Sym::Lin(form) = sym else {
            return Err(NonLinear::Unsupported(format!(
                "{what} is not an affine function of inputs and state"
            )));
        };
        if let Some(pos) = form.max_peek() {
            if pos >= peek {
                return Err(NonLinear::PeekOutOfRange { pos, peek });
            }
        }
        let konst = form
            .konst
            .as_f64()
            .map_err(|e| NonLinear::Unsupported(e.message))?;
        Ok((form.coeffs, konst))
    };
    let mut outputs = Vec::with_capacity(pushes.len());
    for (j, sym) in pushes.into_iter().enumerate() {
        outputs.push(take_form(sym, &format!("push #{j}")).map_err(|e| match e {
            NonLinear::Unsupported(_) => NonLinear::PushedNonAffine { index: j },
            other => other,
        })?);
    }
    // Final field values, in state-index order.
    let mut names_by_index: Vec<&String> = state_index.keys().collect();
    names_by_index.sort_by_key(|n| state_index[*n]);
    let mut next_state = Vec::with_capacity(names_by_index.len());
    for name in names_by_index {
        match env.remove(name.as_str()) {
            Some(SymCell::Scalar(sym)) => {
                next_state.push(take_form(sym, &format!("final value of field `{name}`"))?)
            }
            _ => {
                return Err(NonLinear::Unsupported(format!(
                    "state field `{name}` vanished during analysis"
                )))
            }
        }
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

    fn join(&self, other: &Sym) -> Sym {
        if self == other {
            self.clone()
        } else {
            Sym::Top
        }
    }
}

/// A symbolic storage cell.
#[derive(Debug, Clone, PartialEq)]
enum SymCell {
    Scalar(Sym),
    Array(SymArray),
}

#[derive(Debug, Clone, PartialEq)]
struct SymArray {
    dims: Vec<usize>,
    data: Vec<Sym>,
    /// Set once any store used a non-constant index; all reads become ⊤.
    tainted: bool,
}

impl SymCell {
    /// Converts a concrete cell (field initial value or parameter) into a
    /// symbolic one. In standard extraction, mutated fields are ⊤
    /// throughout: "if a filter has persistent state, all accesses to that
    /// state are marked as ⊤". Stateful extraction instead passes a state
    /// index so the field reads as a state symbol.
    fn from_cell(cell: &Cell, mutated_field: bool, state_index: Option<usize>) -> SymCell {
        if mutated_field {
            if let Some(k) = state_index {
                return SymCell::Scalar(Sym::Lin(LinForm::unit(SymKey::State(k))));
            }
            return match cell {
                Cell::Scalar(..) => SymCell::Scalar(Sym::Top),
                Cell::Array(a) => SymCell::Array(SymArray {
                    dims: a.dims.clone(),
                    data: vec![Sym::Top; a.data.len()],
                    tainted: true,
                }),
            };
        }
        match cell {
            Cell::Scalar(_, v) => SymCell::Scalar(Sym::constant(*v)),
            Cell::Array(a) => SymCell::Array(SymArray {
                dims: a.dims.clone(),
                data: a.data.iter().map(|v| Sym::constant(*v)).collect(),
                tainted: false,
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
    env: HashMap<String, SymCell>,
    popcount: usize,
    pushes: Vec<Sym>,
}

struct SymExec {
    declared_peek: usize,
    fuel: u64,
}

enum Flow {
    Normal,
    Return,
}

impl SymExec {
    fn spend(&mut self) -> Result<(), NonLinear> {
        if self.fuel == 0 {
            return Err(NonLinear::Unresolved("analysis fuel exhausted".into()));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_block(&mut self, st: &mut SymState, block: &Block) -> Result<Flow, NonLinear> {
        for s in &block.stmts {
            if let Flow::Return = self.exec_stmt(st, s)? {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, st: &mut SymState, stmt: &Stmt) -> Result<Flow, NonLinear> {
        self.spend()?;
        match stmt {
            Stmt::Decl { ty, name, init } => {
                let cell = self.make_cell(st, ty)?;
                st.env.insert(name.clone(), cell);
                if let Some(e) = init {
                    let v = self.eval(st, e)?;
                    self.update(st, name, &[], |_| v)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                let rhs = self.eval(st, value)?;
                let (name, idx) = lvalue_parts(target);
                match op {
                    None => self.update(st, name, idx, |_| rhs)?,
                    Some(op) => self.update(st, name, idx, |cur| sym_bin(*op, cur, rhs))?,
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(st, cond)?;
                match c.as_const() {
                    Some(Value::Bool(true)) => self.exec_block(st, then_blk),
                    Some(Value::Bool(false)) => match else_blk {
                        Some(e) => self.exec_block(st, e),
                        None => Ok(Flow::Normal),
                    },
                    Some(_) => Err(NonLinear::Unsupported(
                        "branch condition is not boolean".into(),
                    )),
                    None => {
                        // Input-dependent condition: execute both sides and
                        // join under ⊔ (Algorithm 2's branch case).
                        let mut then_st = st.clone();
                        let t_flow = self.exec_block(&mut then_st, then_blk)?;
                        let mut else_st = st.clone();
                        let e_flow = match else_blk {
                            Some(e) => self.exec_block(&mut else_st, e)?,
                            None => Flow::Normal,
                        };
                        if matches!(t_flow, Flow::Return) != matches!(e_flow, Flow::Return) {
                            return Err(NonLinear::BranchMismatch(
                                "one branch returns, the other falls through".into(),
                            ));
                        }
                        *st = join_states(then_st, else_st)?;
                        Ok(t_flow)
                    }
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    if let Flow::Return = self.exec_stmt(st, i)? {
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
                    if let Flow::Return = self.exec_block(st, body)? {
                        return Ok(Flow::Return);
                    }
                    if let Some(s) = step {
                        if let Flow::Return = self.exec_stmt(st, s)? {
                            return Ok(Flow::Return);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                loop {
                    self.spend()?;
                    if !self.const_bool(st, cond)? {
                        break;
                    }
                    if let Flow::Return = self.exec_block(st, body)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(st, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::Add(_) => Err(NonLinear::Unsupported(
                "`add` inside a work function".into(),
            )),
        }
    }

    /// Loop conditions must resolve to constants so the loop can be fully
    /// unrolled; otherwise the filter is disregarded (§3.2).
    fn const_bool(&mut self, st: &mut SymState, e: &Expr) -> Result<bool, NonLinear> {
        match self.eval(st, e)?.as_const() {
            Some(Value::Bool(b)) => Ok(b),
            _ => Err(NonLinear::Unresolved(
                "loop bound depends on the input or on ⊤ state".into(),
            )),
        }
    }

    fn make_cell(&mut self, st: &mut SymState, ty: &Type) -> Result<SymCell, NonLinear> {
        let mut dims = Vec::with_capacity(ty.dims.len());
        for d in &ty.dims {
            dims.push(self.const_index(st, d)?);
        }
        Ok(if dims.is_empty() {
            SymCell::Scalar(Sym::constant(Value::zero_of(ty.base)))
        } else {
            let n = dims.iter().product();
            SymCell::Array(SymArray {
                dims,
                data: vec![Sym::constant(Value::zero_of(ty.base)); n],
                tainted: false,
            })
        })
    }

    fn const_index(&mut self, st: &mut SymState, e: &Expr) -> Result<usize, NonLinear> {
        match self.eval(st, e)?.as_const() {
            Some(v) => v.as_index().map_err(|e| NonLinear::Unsupported(e.message)),
            None => Err(NonLinear::Unresolved(
                "array index or size depends on the input".into(),
            )),
        }
    }

    fn flat_offset(dims: &[usize], idx: &[usize]) -> Result<usize, NonLinear> {
        if dims.len() != idx.len() {
            return Err(NonLinear::Unsupported("array rank mismatch".into()));
        }
        let mut off = 0;
        for (&i, &d) in idx.iter().zip(dims) {
            if i >= d {
                return Err(NonLinear::Unsupported(format!(
                    "array index {i} out of bounds for dimension of size {d}"
                )));
            }
            off = off * d + i;
        }
        Ok(off)
    }

    /// Evaluates index expressions; `None` if any is input-dependent.
    fn eval_indices(
        &mut self,
        st: &mut SymState,
        idx_exprs: &[Expr],
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
        name: &str,
        idx_exprs: &[Expr],
    ) -> Result<Sym, NonLinear> {
        let idx = self.eval_indices(st, idx_exprs)?;
        match st.env.get(name) {
            Some(SymCell::Scalar(s)) if idx_exprs.is_empty() => Ok(s.clone()),
            Some(SymCell::Array(a)) if !idx_exprs.is_empty() => match idx {
                _ if a.tainted => Ok(Sym::Top),
                None => Ok(Sym::Top),
                Some(idx) => Ok(a.data[Self::flat_offset(&a.dims, &idx)?].clone()),
            },
            other => Err(access_error(name, other, idx_exprs.is_empty())),
        }
    }

    /// Replaces the value of a scalar (no index expressions) or an array
    /// element with `f(current value)`. The current value is moved out of
    /// its cell and the result moved back, so `f` can accumulate into it in
    /// place; the index expressions are evaluated once.
    fn update(
        &mut self,
        st: &mut SymState,
        name: &str,
        idx_exprs: &[Expr],
        f: impl FnOnce(Sym) -> Sym,
    ) -> Result<(), NonLinear> {
        let idx = self.eval_indices(st, idx_exprs)?;
        match st.env.get_mut(name) {
            Some(SymCell::Scalar(slot)) if idx_exprs.is_empty() => {
                *slot = f(std::mem::replace(slot, Sym::Top));
            }
            Some(SymCell::Array(a)) if !idx_exprs.is_empty() => match idx {
                None => {
                    // A store at an unknown position clobbers the whole
                    // array, conservatively.
                    a.tainted = true;
                    a.data.fill(Sym::Top);
                }
                Some(idx) => {
                    let slot = &mut a.data[Self::flat_offset(&a.dims, &idx)?];
                    let cur = std::mem::replace(slot, Sym::Top);
                    *slot = f(if a.tainted { Sym::Top } else { cur });
                }
            },
            other => return Err(access_error(name, other.as_deref(), idx_exprs.is_empty())),
        }
        Ok(())
    }

    fn eval(&mut self, st: &mut SymState, expr: &Expr) -> Result<Sym, NonLinear> {
        match expr {
            Expr::Int(v) => Ok(Sym::constant(Value::Int(*v))),
            Expr::Float(v) => Ok(Sym::constant(Value::Float(*v))),
            Expr::Bool(v) => Ok(Sym::constant(Value::Bool(*v))),
            Expr::Pi => Ok(Sym::constant(Value::Float(std::f64::consts::PI))),
            Expr::Var(name) => self.read(st, name, &[]),
            Expr::Index(name, idx) => self.read(st, name, idx),
            Expr::Unary(op, e) => {
                let v = self.eval(st, e)?;
                Ok(sym_un(*op, v))
            }
            Expr::Binary(op, a, b) => {
                let x = self.eval(st, a)?;
                let y = self.eval(st, b)?;
                Ok(sym_bin(*op, x, y))
            }
            Expr::Peek(i) => {
                let i = self.const_index(st, i)?;
                let pos = st.popcount + i;
                if pos >= self.declared_peek {
                    return Err(NonLinear::PeekOutOfRange {
                        pos,
                        peek: self.declared_peek,
                    });
                }
                Ok(Sym::Lin(LinForm::unit(SymKey::Peek(pos))))
            }
            Expr::Pop => {
                let pos = st.popcount;
                if pos >= self.declared_peek {
                    return Err(NonLinear::PeekOutOfRange {
                        pos,
                        peek: self.declared_peek,
                    });
                }
                st.popcount += 1;
                Ok(Sym::Lin(LinForm::unit(SymKey::Peek(pos))))
            }
            Expr::Push(e) => {
                let v = self.eval(st, e)?;
                st.pushes.push(v);
                Ok(Sym::constant(Value::Int(0)))
            }
            Expr::Call(name, args) => {
                if name == "print" || name == "println" {
                    return Err(NonLinear::Prints);
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval(st, a)?.as_const() {
                        Some(v) => vals.push(v),
                        None => return Ok(Sym::Top),
                    }
                }
                match math_call(name, &vals) {
                    Ok(v) => Ok(Sym::constant(v)),
                    Err(e) => Err(NonLinear::Unsupported(e.message)),
                }
            }
            Expr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let (name, idx) = lvalue_parts(target);
                let mut old = Sym::Top;
                self.update(st, name, idx, |cur| {
                    old = cur.clone();
                    sym_bin(op, cur, Sym::constant(Value::Int(1)))
                })?;
                Ok(old)
            }
        }
    }
}

/// The error for a name that is missing, a scalar that is indexed, or an
/// array used as a scalar.
fn access_error(name: &str, cell: Option<&SymCell>, scalar_access: bool) -> NonLinear {
    NonLinear::Unsupported(match (cell, scalar_access) {
        (Some(SymCell::Array(_)), _) => format!("`{name}` is an array"),
        (Some(SymCell::Scalar(_)), _) => format!("`{name}` is a scalar"),
        (None, true) => format!("undefined variable `{name}`"),
        (None, false) => format!("undefined array `{name}`"),
    })
}

fn join_states(a: SymState, b: SymState) -> Result<SymState, NonLinear> {
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
    let pushes = a
        .pushes
        .iter()
        .zip(&b.pushes)
        .map(|(x, y)| x.join(y))
        .collect();
    let mut env = HashMap::new();
    for (name, ca) in &a.env {
        // Names declared in only one branch go out of scope at the join.
        if let Some(cb) = b.env.get(name) {
            env.insert(name.clone(), join_cells(ca, cb));
        }
    }
    Ok(SymState {
        env,
        popcount: a.popcount,
        pushes,
    })
}

fn join_cells(a: &SymCell, b: &SymCell) -> SymCell {
    match (a, b) {
        (SymCell::Scalar(x), SymCell::Scalar(y)) => SymCell::Scalar(x.join(y)),
        (SymCell::Array(x), SymCell::Array(y)) if x.dims == y.dims => {
            let tainted = x.tainted || y.tainted;
            let data = x
                .data
                .iter()
                .zip(&y.data)
                .map(|(p, q)| if tainted { Sym::Top } else { p.join(q) })
                .collect();
            SymCell::Array(SymArray {
                dims: x.dims.clone(),
                data,
                tainted,
            })
        }
        (SymCell::Array(x), _) => SymCell::Array(SymArray {
            dims: x.dims.clone(),
            data: vec![Sym::Top; x.data.len()],
            tainted: true,
        }),
        (SymCell::Scalar(_), _) => SymCell::Scalar(Sym::Top),
    }
}

/// Names assigned anywhere in a block (used to find mutated fields).
pub(crate) fn written_names(block: &Block) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_writes_block(block, &mut out);
    out
}

fn collect_writes_block(block: &Block, out: &mut HashSet<String>) {
    for s in &block.stmts {
        collect_writes_stmt(s, out);
    }
}

fn collect_writes_stmt(stmt: &Stmt, out: &mut HashSet<String>) {
    match stmt {
        Stmt::Assign { target, value, .. } => {
            out.insert(lvalue_parts(target).0.to_string());
            collect_writes_expr(value, out);
        }
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                collect_writes_expr(e, out);
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            collect_writes_expr(cond, out);
            collect_writes_block(then_blk, out);
            if let Some(e) = else_blk {
                collect_writes_block(e, out);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_writes_stmt(i, out);
            }
            if let Some(c) = cond {
                collect_writes_expr(c, out);
            }
            if let Some(s) = step {
                collect_writes_stmt(s, out);
            }
            collect_writes_block(body, out);
        }
        Stmt::While { cond, body } => {
            collect_writes_expr(cond, out);
            collect_writes_block(body, out);
        }
        Stmt::Expr(e) => collect_writes_expr(e, out),
        Stmt::Return | Stmt::Add(_) => {}
    }
}

fn collect_writes_expr(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::PostIncDec { target, .. } => {
            out.insert(lvalue_parts(target).0.to_string());
        }
        Expr::Unary(_, a) | Expr::Peek(a) | Expr::Push(a) => collect_writes_expr(a, out),
        Expr::Binary(_, a, b) => {
            collect_writes_expr(a, out);
            collect_writes_expr(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_writes_expr(a, out);
            }
        }
        Expr::Index(_, idx) => {
            for i in idx {
                collect_writes_expr(i, out);
            }
        }
        _ => {}
    }
}

/// An lvalue's variable name and index expressions (none for a scalar).
fn lvalue_parts(lv: &LValue) -> (&str, &[Expr]) {
    match lv {
        LValue::Var(n) => (n, &[]),
        LValue::Index(n, idx) => (n, idx),
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
