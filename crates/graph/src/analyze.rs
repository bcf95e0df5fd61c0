//! Verified-filter dataflow framework: a flow-sensitive abstract
//! interpreter over the lowered work bodies ([`crate::lower`]).
//!
//! The paper's compiler symbolically executes work functions to extract
//! linear coefficients (§3.2). This module generalises that move into a
//! reusable abstract interpretation with three clients:
//!
//! 1. **Rate & bounds certification** — peek offsets are tracked as
//!    integer intervals and pop/push counts are accumulated symbolically
//!    along all paths. A phase whose tape accesses provably stay inside
//!    the declared `peek` window and whose final pop/push counts provably
//!    equal the declared rates earns a [`RateCert`]; the runtime engines
//!    use it to elide per-access tape checks and post-firing rate
//!    validation. Provable violations become [`AnalysisError`]s that fail
//!    elaboration with source spans instead of surfacing as runtime
//!    `EvalError`s on the Nth firing.
//! 2. **State-effect lattice** — [`StateEffect`]: `Pure ⊏ ReadsState ⊏
//!    AffineState ⊏ OpaqueState`. `AffineState` means every executed
//!    write to persistent state stores a value that is affine in fields
//!    and inputs (degree ≤ linear in the abstract domain). Fission
//!    consults this instead of a syntactic `writes_global` walk, so a
//!    store that only happens in a provably-dead branch no longer blocks
//!    data parallelism.
//! 3. **Lints** — [`Lint`]s with spans: dead field stores, constant
//!    conditions, possibly-out-of-range peeks, possible rate mismatches.
//!    (Unused-field/-parameter lints are added at elaboration, which
//!    still sees the source names.)
//!
//! The analysis is deliberately *checked against the concrete
//! semantics*: constant folding calls the very same [`bin_op`]/[`un_op`]/
//! [`MathFn::call`] the runtime interpreter uses, so a decided branch or
//! loop trip count can never disagree with execution.

use std::collections::{HashMap, HashSet};

use streamlin_lang::ast::{BinOp, DataType, UnOp};
use streamlin_lang::token::Span;

use crate::ir::WorkFn;
use crate::lower::{LoweredFilter, LoweredWork, RExpr, RLValue, RStmt, Slot};
use crate::value::{bin_op, Cell, Value};

/// Sentinel for "no static bound" in pop/push counters.
const UNBOUNDED: i64 = i64::MAX;

/// Abstract steps (statements evaluated) per phase before the analysis
/// gives up and reports conservative facts.
const ANALYSIS_FUEL: u64 = 2_000_000;

/// Concrete iterations a single loop may be unrolled before the analysis
/// falls back to widening.
const MAX_UNROLL: u64 = 65_536;

// ---------------------------------------------------------------------------
// Public facts
// ---------------------------------------------------------------------------

/// How a filter's work code interacts with its persistent state
/// (fields). Ordered: each level includes everything the previous one
/// permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StateEffect {
    /// Neither reads nor writes mutable state on any executed path.
    Pure,
    /// Reads mutable state, never writes it on any executed path.
    ReadsState,
    /// Writes state, but every stored value is affine in fields and
    /// inputs (and array stores use constant indices).
    AffineState,
    /// Writes state in a way the analysis cannot bound.
    #[default]
    OpaqueState,
}

impl std::fmt::Display for StateEffect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StateEffect::Pure => "pure",
            StateEffect::ReadsState => "reads-state",
            StateEffect::AffineState => "affine-state",
            StateEffect::OpaqueState => "opaque-state",
        })
    }
}

/// Proof that one work phase always pops/pushes exactly its declared
/// rates and every tape access stays inside the declared peek window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateCert {
    /// Certified peek window.
    pub peek: usize,
    /// Certified pop count.
    pub pop: usize,
    /// Certified push count.
    pub push: usize,
}

/// Per-phase analysis results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseFacts {
    /// Present iff the phase's rates and bounds were proved.
    pub cert: Option<RateCert>,
    /// Why certification failed (absent when `cert` is present).
    pub uncertified: Option<String>,
    /// Statically possible pop counts (`i64::MAX` = unbounded).
    pub pop_range: (i64, i64),
    /// Statically possible push counts (`i64::MAX` = unbounded).
    pub push_range: (i64, i64),
}

/// A spanned advisory diagnostic produced by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable lint identifier (`dead-store`, `constant-condition`,
    /// `peek-range`, `rate-mismatch`, `unused-field`, `unused-param`).
    pub code: &'static str,
    /// Source position.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

/// A provable error: every execution of the phase violates its declared
/// rates or peeks out of bounds. Fails elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// Source position.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything the framework proved about one filter. Attached to
/// [`crate::ir::FilterInst`] at elaboration; execution paths must
/// consult this record rather than re-deriving effects syntactically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilterFacts {
    /// Joined state effect across both phases.
    pub effect: StateEffect,
    /// Facts for the steady-state work phase.
    pub work: PhaseFacts,
    /// Facts for the optional first-firing phase.
    pub init_work: Option<PhaseFacts>,
    /// Advisory diagnostics.
    pub lints: Vec<Lint>,
    /// Provable violations (non-empty fails elaboration).
    pub errors: Vec<AnalysisError>,
}

impl FilterFacts {
    /// True if the given phase is rate/bounds certified (`init` selects
    /// the first-firing phase; a filter without one vacuously defers to
    /// the work phase being irrelevant — callers pass the phase they are
    /// about to run).
    pub fn phase_certified(&self, init: bool) -> bool {
        if init {
            self.init_work.as_ref().is_some_and(|p| p.cert.is_some())
        } else {
            self.work.cert.is_some()
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

/// Abstract scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Num {
    /// Exactly this concrete value on every path.
    Known(Value),
    /// An integer in `[lo, hi]`.
    Int(i64, i64),
    /// A float with no further information.
    FloatAny,
    /// Anything.
    Any,
}

/// Dependence of a value on inputs and mutable state, in the sense of
/// the paper's linear forms: `Const` depends on neither, `Linear` is an
/// affine combination, `Top` is anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Degree {
    Const,
    Linear,
    Top,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsV {
    num: Num,
    deg: Degree,
}

impl AbsV {
    fn known(v: Value) -> AbsV {
        AbsV {
            num: Num::Known(v),
            deg: Degree::Const,
        }
    }

    /// A fresh tape item: an unknown float, linear by definition.
    fn input() -> AbsV {
        AbsV {
            num: Num::FloatAny,
            deg: Degree::Linear,
        }
    }

    fn top() -> AbsV {
        AbsV {
            num: Num::Any,
            deg: Degree::Top,
        }
    }

    /// Integer range, if this value is provably an integer.
    fn int_range(&self) -> Option<(i64, i64)> {
        match self.num {
            Num::Known(Value::Int(v)) => Some((v, v)),
            Num::Int(lo, hi) => Some((lo, hi)),
            _ => None,
        }
    }

    fn known_bool(&self) -> Option<bool> {
        match self.num {
            Num::Known(Value::Bool(b)) => Some(b),
            _ => None,
        }
    }

    fn is_floatish(&self) -> bool {
        matches!(self.num, Num::Known(Value::Float(_)) | Num::FloatAny)
    }

    fn join(a: AbsV, b: AbsV) -> AbsV {
        let num = if a.num == b.num {
            a.num
        } else {
            match (a.int_range(), b.int_range()) {
                (Some((al, ah)), Some((bl, bh))) => Num::Int(al.min(bl), ah.max(bh)),
                _ if a.is_floatish() && b.is_floatish() => Num::FloatAny,
                _ => Num::Any,
            }
        };
        AbsV {
            num,
            deg: a.deg.max(b.deg),
        }
    }
}

fn clamp128(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

/// Interval arithmetic on integer ranges (clamped, never wraps — a
/// clamped bound only widens the range, which is sound).
fn int_interval(op: BinOp, a: (i64, i64), b: (i64, i64)) -> Num {
    let (al, ah, bl, bh) = (a.0 as i128, a.1 as i128, b.0 as i128, b.1 as i128);
    match op {
        BinOp::Add => Num::Int(clamp128(al + bl), clamp128(ah + bh)),
        BinOp::Sub => Num::Int(clamp128(al - bh), clamp128(ah - bl)),
        BinOp::Mul => {
            let c = [al * bl, al * bh, ah * bl, ah * bh];
            Num::Int(
                clamp128(*c.iter().min().expect("non-empty")),
                clamp128(*c.iter().max().expect("non-empty")),
            )
        }
        _ => Num::Any,
    }
}

/// Decides an integer comparison when the ranges permit.
fn int_compare(op: BinOp, a: (i64, i64), b: (i64, i64)) -> Num {
    let decided = match op {
        BinOp::Lt => decide(a.1 < b.0, a.0 >= b.1),
        BinOp::Le => decide(a.1 <= b.0, a.0 > b.1),
        BinOp::Gt => decide(a.0 > b.1, a.1 <= b.0),
        BinOp::Ge => decide(a.0 >= b.1, a.1 < b.0),
        BinOp::Eq => decide(
            a.0 == a.1 && b.0 == b.1 && a.0 == b.0,
            a.1 < b.0 || b.1 < a.0,
        ),
        BinOp::Ne => decide(
            a.1 < b.0 || b.1 < a.0,
            a.0 == a.1 && b.0 == b.1 && a.0 == b.0,
        ),
        _ => None,
    };
    match decided {
        Some(v) => Num::Known(Value::Bool(v)),
        None => Num::Any,
    }
}

fn decide(yes: bool, no: bool) -> Option<bool> {
    if yes {
        Some(true)
    } else if no {
        Some(false)
    } else {
        None
    }
}

/// Abstract binary operation (everything except short-circuit `&&`/`||`,
/// which the walker handles to model conditional side effects).
fn abin(op: BinOp, a: AbsV, b: AbsV) -> AbsV {
    use BinOp::*;
    let deg = match op {
        Add | Sub => a.deg.max(b.deg),
        Mul => {
            if a.deg == Degree::Const || b.deg == Degree::Const {
                a.deg.max(b.deg)
            } else {
                Degree::Top
            }
        }
        Div => {
            if a.deg == Degree::Const && b.deg == Degree::Const {
                Degree::Const
            } else if b.deg == Degree::Const && (a.is_floatish() || b.is_floatish()) {
                // Float division by a constant is a linear scaling;
                // integer division truncates and is not.
                a.deg
            } else {
                Degree::Top
            }
        }
        _ => {
            if a.deg == Degree::Const && b.deg == Degree::Const {
                Degree::Const
            } else {
                Degree::Top
            }
        }
    };
    if let (Num::Known(x), Num::Known(y)) = (a.num, b.num) {
        if let Ok(v) = bin_op(op, x, y) {
            return AbsV {
                num: Num::Known(v),
                deg,
            };
        }
        // A constant evaluation error (e.g. division by zero) fails the
        // same way at runtime under both execution paths; stay sound.
        return AbsV { num: Num::Any, deg };
    }
    let num = match op {
        Add | Sub | Mul | Div | Rem => {
            if a.is_floatish() || b.is_floatish() {
                Num::FloatAny
            } else if matches!(op, Add | Sub | Mul) {
                match (a.int_range(), b.int_range()) {
                    (Some(x), Some(y)) => int_interval(op, x, y),
                    _ => Num::Any,
                }
            } else {
                Num::Any
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne => match (a.int_range(), b.int_range()) {
            (Some(x), Some(y)) => int_compare(op, x, y),
            _ => Num::Any,
        },
        _ => Num::Any,
    };
    AbsV { num, deg }
}

/// Abstract unary operation.
fn aun(op: UnOp, a: AbsV) -> AbsV {
    if let Num::Known(x) = a.num {
        if let Ok(v) = crate::value::un_op(op, x) {
            return AbsV {
                num: Num::Known(v),
                deg: a.deg,
            };
        }
        return AbsV {
            num: Num::Any,
            deg: a.deg,
        };
    }
    match (op, a.num) {
        (UnOp::Neg, Num::Int(lo, hi)) => AbsV {
            num: Num::Int(clamp128(-(hi as i128)), clamp128(-(lo as i128))),
            deg: a.deg,
        },
        (UnOp::Neg, Num::FloatAny) => AbsV {
            num: Num::FloatAny,
            deg: a.deg,
        },
        _ => AbsV {
            num: Num::Any,
            deg: if a.deg == Degree::Const {
                Degree::Const
            } else {
                Degree::Top
            },
        },
    }
}

// ---------------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------------

/// Saturating pop/push counter interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ctr {
    lo: i64,
    hi: i64,
}

impl Ctr {
    fn zero() -> Ctr {
        Ctr { lo: 0, hi: 0 }
    }
    fn bump(&mut self) {
        self.lo = self.lo.saturating_add(1);
        self.hi = self.hi.saturating_add(1);
    }
    fn join(a: Ctr, b: Ctr) -> Ctr {
        Ctr {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        }
    }
}

/// One abstract program state: a value per storage slot plus the tape
/// counters. Array slots hold a single element summary (weak updates).
#[derive(Clone, PartialEq)]
struct AState {
    globals: Vec<AbsV>,
    frame: Vec<AbsV>,
    pops: Ctr,
    pushes: Ctr,
}

impl AState {
    fn join(mut a: AState, b: &AState) -> AState {
        for (x, y) in a.globals.iter_mut().zip(&b.globals) {
            *x = AbsV::join(*x, *y);
        }
        for (x, y) in a.frame.iter_mut().zip(&b.frame) {
            *x = AbsV::join(*x, *y);
        }
        a.pops = Ctr::join(a.pops, b.pops);
        a.pushes = Ctr::join(a.pushes, b.pushes);
        a
    }
}

/// Effects accumulated across both phases of one filter.
#[derive(Default)]
struct Fx {
    reads_state: bool,
    writes_state: bool,
    affine_ok: bool,
    global_reads: Vec<bool>,
    global_writes: Vec<Option<Span>>,
    lints: Vec<Lint>,
    errors: Vec<AnalysisError>,
}

/// Syntactic summary of a statement list, used to widen unresolved
/// loops: which slots it can write, and whether it touches the tape.
#[derive(Default)]
struct SynFx {
    writes: HashSet<Slot>,
    pops: bool,
    pushes: bool,
    peeks: bool,
}

/// Every slot a statement list can write — by assignment, `++`/`--` or
/// declaration — on any path, taken or not. The one syntactic write-set
/// walker over the slot IR: this module widens unresolved loops with it
/// and decides which globals are mutable, and linear extraction asks it
/// which fields `work` mutates.
pub fn written_slots(stmts: &[RStmt]) -> HashSet<Slot> {
    let mut fx = SynFx::default();
    syn_stmts(stmts, &mut fx);
    fx.writes
}

fn syn_stmts(stmts: &[RStmt], fx: &mut SynFx) {
    for s in stmts {
        syn_stmt(s, fx);
    }
}

fn syn_stmt(s: &RStmt, fx: &mut SynFx) {
    match s {
        RStmt::Decl {
            slot, dims, init, ..
        } => {
            fx.writes.insert(Slot::Frame(*slot));
            for d in dims {
                syn_expr(d, fx);
            }
            if let Some(e) = init {
                syn_expr(e, fx);
            }
        }
        RStmt::Assign { target, value, .. } => {
            syn_lvalue(target, fx);
            syn_expr(value, fx);
        }
        RStmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            syn_expr(cond, fx);
            syn_stmts(then_blk, fx);
            if let Some(e) = else_blk {
                syn_stmts(e, fx);
            }
        }
        RStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(s) = init {
                syn_stmt(s, fx);
            }
            if let Some(c) = cond {
                syn_expr(c, fx);
            }
            if let Some(s) = step {
                syn_stmt(s, fx);
            }
            syn_stmts(body, fx);
        }
        RStmt::Expr(e, _) => syn_expr(e, fx),
        RStmt::Return => {}
    }
}

fn syn_lvalue(lv: &RLValue, fx: &mut SynFx) {
    match lv {
        RLValue::Var(slot) => {
            fx.writes.insert(*slot);
        }
        RLValue::Index(slot, idxs) => {
            fx.writes.insert(*slot);
            for i in idxs {
                syn_expr(i, fx);
            }
        }
    }
}

fn syn_expr(e: &RExpr, fx: &mut SynFx) {
    match e {
        RExpr::Int(_) | RExpr::Float(_) | RExpr::Bool(_) | RExpr::Var(_) => {}
        RExpr::Index(_, idxs) => {
            for i in idxs {
                syn_expr(i, fx);
            }
        }
        RExpr::Unary(_, a) => syn_expr(a, fx),
        RExpr::Binary(_, a, b) => {
            syn_expr(a, fx);
            syn_expr(b, fx);
        }
        RExpr::Peek(i) => {
            fx.peeks = true;
            syn_expr(i, fx);
        }
        RExpr::Pop => fx.pops = true,
        RExpr::Push(v) => {
            fx.pushes = true;
            syn_expr(v, fx);
        }
        RExpr::Math(_, args) => {
            for a in args {
                syn_expr(a, fx);
            }
        }
        RExpr::Print { arg, .. } => syn_expr(arg, fx),
        RExpr::PostIncDec { target, .. } => syn_lvalue(target, fx),
    }
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    /// Declared rates of the phase under analysis.
    decl: &'a WorkFn,
    /// Concrete cells of globals never written by any phase (`None` for
    /// mutable globals, whose entry values are unknown).
    consts: &'a [Option<&'a Cell>],
    /// Scalar type of each global, for assignment coercion.
    global_ty: &'a [Option<DataType>],
    fx: &'a mut Fx,
    fuel: u64,
    poisoned: bool,
    /// Depth of statically-undecided control flow around the current
    /// point. Zero means the current statement executes on every firing,
    /// which is what upgrades a possible violation to a provable one.
    cond_depth: u32,
    cur_span: Span,
    /// Joined state at `return` statements.
    exit: Option<AState>,
    /// First reason certification failed, if any.
    uncert: Option<String>,
}

impl Analyzer<'_> {
    fn uncertify(&mut self, reason: impl Into<String>) {
        if self.uncert.is_none() {
            self.uncert = Some(reason.into());
        }
    }

    fn lint(&mut self, code: &'static str, message: String) {
        let span = self.cur_span;
        if !self
            .fx
            .lints
            .iter()
            .any(|l| l.code == code && l.span == span && l.message == message)
        {
            self.fx.lints.push(Lint {
                code,
                span,
                message,
            });
        }
    }

    fn error(&mut self, message: String) {
        self.fx.errors.push(AnalysisError {
            span: self.cur_span,
            message,
        });
    }

    fn exec_stmts(&mut self, mut st: Option<AState>, stmts: &[RStmt]) -> Option<AState> {
        for s in stmts {
            match st {
                Some(state) => st = self.exec_stmt(state, s),
                None => return None,
            }
        }
        st
    }

    fn exec_stmt(&mut self, mut st: AState, s: &RStmt) -> Option<AState> {
        if self.poisoned {
            return Some(st);
        }
        if self.fuel == 0 {
            self.poisoned = true;
            return Some(st);
        }
        self.fuel -= 1;
        self.cur_span = s.span();
        match s {
            RStmt::Decl {
                slot,
                base,
                dims,
                init,
                ..
            } => {
                for d in dims {
                    self.eval(&mut st, d);
                }
                let mut v = match init {
                    Some(e) => self.eval(&mut st, e),
                    None => AbsV::known(Value::zero_of(*base)),
                };
                if dims.is_empty() {
                    v = coerce(v, Some(*base));
                } else {
                    // Array: summarise zero-fill joined with the
                    // (scalar) initializer, if any.
                    v = AbsV::join(v, AbsV::known(Value::zero_of(*base)));
                }
                st.frame[*slot as usize] = v;
                Some(st)
            }
            RStmt::Assign {
                target, op, value, ..
            } => {
                let rhs = self.eval(&mut st, value);
                let new = match op {
                    None => rhs,
                    Some(op) => {
                        let old = self.read_lvalue(&mut st, target);
                        abin(*op, old, rhs)
                    }
                };
                self.write_lvalue(&mut st, target, new);
                Some(st)
            }
            RStmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(&mut st, cond);
                if let Some(b) = c.known_bool() {
                    self.lint(
                        "constant-condition",
                        format!("`if` condition is always {b}"),
                    );
                    return if b {
                        self.exec_stmts(Some(st), then_blk)
                    } else {
                        match else_blk {
                            Some(e) => self.exec_stmts(Some(st), e),
                            None => Some(st),
                        }
                    };
                }
                self.cond_depth += 1;
                let t = self.exec_stmts(Some(st.clone()), then_blk);
                let e = match else_blk {
                    Some(blk) => self.exec_stmts(Some(st), blk),
                    None => Some(st),
                };
                self.cond_depth -= 1;
                match (t, e) {
                    (Some(a), Some(b)) => Some(AState::join(a, &b)),
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (None, None) => None,
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let st = match init {
                    Some(s) => self.exec_stmt(st, s)?,
                    None => st,
                };
                self.exec_loop(st, cond.as_ref(), step.as_deref(), body)
            }
            RStmt::Expr(e, _) => {
                self.eval(&mut st, e);
                Some(st)
            }
            RStmt::Return => {
                self.exit = Some(match self.exit.take() {
                    Some(prev) => AState::join(prev, &st),
                    None => st,
                });
                None
            }
        }
    }

    /// Shared `for`/`while` engine: unroll while the condition stays
    /// statically decided, fall back to widening otherwise.
    fn exec_loop(
        &mut self,
        mut st: AState,
        cond: Option<&RExpr>,
        step: Option<&RStmt>,
        body: &[RStmt],
    ) -> Option<AState> {
        let loop_span = self.cur_span;
        for _ in 0..MAX_UNROLL {
            if self.poisoned {
                return Some(st);
            }
            let decided = match cond {
                None => Some(true),
                Some(c) => self.eval(&mut st, c).known_bool(),
            };
            match decided {
                Some(false) => return Some(st),
                Some(true) => {
                    let after = self.exec_stmts(Some(st), body)?;
                    st = after;
                    if let Some(s) = step {
                        st = self.exec_stmt(st, s)?;
                    }
                }
                None => return Some(self.widen_loop(st, cond, step, body, loop_span)),
            }
        }
        Some(self.widen_loop(st, cond, step, body, loop_span))
    }

    /// A loop whose trip count could not be resolved: clobber everything
    /// it can write, saturate the tape counters if it touches the tape,
    /// then walk the body once (under `cond_depth`) so its reads, writes
    /// and nested diagnostics are still accounted for.
    fn widen_loop(
        &mut self,
        mut st: AState,
        cond: Option<&RExpr>,
        step: Option<&RStmt>,
        body: &[RStmt],
        loop_span: Span,
    ) -> AState {
        let mut syn = SynFx::default();
        if let Some(c) = cond {
            syn_expr(c, &mut syn);
        }
        if let Some(s) = step {
            syn_stmt(s, &mut syn);
        }
        syn_stmts(body, &mut syn);
        let widen = |st: &mut AState| {
            for w in &syn.writes {
                match w {
                    Slot::Global(g) => st.globals[*g as usize] = AbsV::top(),
                    Slot::Frame(f) => st.frame[*f as usize] = AbsV::top(),
                }
            }
        };
        widen(&mut st);
        if syn.pops {
            st.pops.hi = UNBOUNDED;
        }
        if syn.pushes {
            st.pushes.hi = UNBOUNDED;
        }
        if syn.pops || syn.pushes || syn.peeks {
            self.cur_span = loop_span;
            self.uncertify(format!(
                "a loop at {loop_span} with a statically unresolved trip count touches the tape"
            ));
        }
        // One widened pass for effect accounting; its value state is
        // discarded (the widening above already covers every write).
        self.cond_depth += 1;
        let mut probe = st.clone();
        if let Some(c) = cond {
            self.eval(&mut probe, c);
        }
        if let Some(after) = self.exec_stmts(Some(probe), body) {
            if let Some(s) = step {
                self.exec_stmt(after, s);
            }
        }
        self.cond_depth -= 1;
        widen(&mut st);
        st
    }

    fn read_slot(&mut self, st: &AState, slot: Slot) -> AbsV {
        match slot {
            Slot::Global(g) => {
                let g = g as usize;
                self.fx.global_reads[g] = true;
                match self.consts[g] {
                    Some(Cell::Scalar(_, v)) => AbsV::known(*v),
                    Some(Cell::Array(_)) => AbsV {
                        num: Num::Any,
                        deg: Degree::Const,
                    },
                    None => {
                        self.fx.reads_state = true;
                        st.globals[g]
                    }
                }
            }
            Slot::Frame(f) => st.frame[f as usize],
        }
    }

    fn read_lvalue(&mut self, st: &mut AState, lv: &RLValue) -> AbsV {
        match lv {
            RLValue::Var(slot) => self.read_slot(st, *slot),
            RLValue::Index(slot, idxs) => self.read_index(st, *slot, idxs),
        }
    }

    fn read_index(&mut self, st: &mut AState, slot: Slot, idxs: &[RExpr]) -> AbsV {
        let iv: Vec<AbsV> = idxs.iter().map(|i| self.eval(st, i)).collect();
        let idx_const = iv.iter().all(|i| i.deg == Degree::Const);
        match slot {
            Slot::Global(g) => {
                let gi = g as usize;
                self.fx.global_reads[gi] = true;
                if let Some(Cell::Array(av)) = self.consts[gi] {
                    // Constant table: a fully known index reads the exact
                    // element; a constant-degree index is still some fixed
                    // element (degree const); anything else is a data-
                    // dependent table lookup (non-affine).
                    let concrete: Option<Vec<usize>> = iv
                        .iter()
                        .map(|i| match i.num {
                            Num::Known(v) => v.as_index().ok(),
                            _ => None,
                        })
                        .collect();
                    if let Some(ix) = concrete {
                        if let Ok(v) = av.get(&ix) {
                            return AbsV::known(v);
                        }
                    }
                    return AbsV {
                        num: elem_num(av.elem),
                        deg: if idx_const {
                            Degree::Const
                        } else {
                            Degree::Top
                        },
                    };
                }
                self.fx.reads_state = true;
                let summary = st.globals[gi];
                AbsV {
                    num: summary.num,
                    deg: if idx_const { summary.deg } else { Degree::Top },
                }
            }
            Slot::Frame(f) => {
                let summary = st.frame[f as usize];
                AbsV {
                    num: summary.num,
                    deg: if idx_const { summary.deg } else { Degree::Top },
                }
            }
        }
    }

    fn write_lvalue(&mut self, st: &mut AState, lv: &RLValue, v: AbsV) {
        match lv {
            RLValue::Var(slot) => match slot {
                Slot::Global(g) => {
                    let gi = *g as usize;
                    self.record_global_write(gi, v.deg <= Degree::Linear);
                    st.globals[gi] = coerce(v, self.global_ty[gi]);
                }
                Slot::Frame(f) => st.frame[*f as usize] = v,
            },
            RLValue::Index(slot, idxs) => {
                let iv: Vec<AbsV> = idxs.iter().map(|i| self.eval(st, i)).collect();
                let idx_const = iv.iter().all(|i| i.deg == Degree::Const);
                match slot {
                    Slot::Global(g) => {
                        let gi = *g as usize;
                        // An array store is affine only when the element
                        // it targets is fixed (constant indices) and the
                        // stored value is affine.
                        self.record_global_write(gi, idx_const && v.deg <= Degree::Linear);
                        st.globals[gi] = AbsV::join(st.globals[gi], v);
                    }
                    Slot::Frame(f) => {
                        let fi = *f as usize;
                        st.frame[fi] = AbsV::join(st.frame[fi], v);
                    }
                }
            }
        }
    }

    fn record_global_write(&mut self, g: usize, affine: bool) {
        self.fx.writes_state = true;
        if !affine {
            self.fx.affine_ok = false;
        }
        if self.fx.global_writes[g].is_none() {
            self.fx.global_writes[g] = Some(self.cur_span);
        }
    }

    fn eval(&mut self, st: &mut AState, e: &RExpr) -> AbsV {
        match e {
            RExpr::Int(v) => AbsV::known(Value::Int(*v)),
            RExpr::Float(v) => AbsV::known(Value::Float(*v)),
            RExpr::Bool(v) => AbsV::known(Value::Bool(*v)),
            RExpr::Var(slot) => self.read_slot(st, *slot),
            RExpr::Index(slot, idxs) => self.read_index(st, *slot, idxs),
            RExpr::Unary(op, a) => {
                let v = self.eval(st, a);
                aun(*op, v)
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit: the right operand's side effects happen
                // only on some paths.
                let av = self.eval(st, a);
                match av.known_bool() {
                    Some(false) if *op == BinOp::And => AbsV::known(Value::Bool(false)),
                    Some(true) if *op == BinOp::Or => AbsV::known(Value::Bool(true)),
                    Some(_) => {
                        let bv = self.eval(st, b);
                        AbsV {
                            num: match bv.known_bool() {
                                Some(x) => Num::Known(Value::Bool(x)),
                                None => Num::Any,
                            },
                            deg: if av.deg == Degree::Const && bv.deg == Degree::Const {
                                Degree::Const
                            } else {
                                Degree::Top
                            },
                        }
                    }
                    None => {
                        let before = st.clone();
                        self.cond_depth += 1;
                        let bv = self.eval(st, b);
                        self.cond_depth -= 1;
                        *st = AState::join(st.clone(), &before);
                        AbsV {
                            num: Num::Any,
                            deg: if av.deg == Degree::Const && bv.deg == Degree::Const {
                                Degree::Const
                            } else {
                                Degree::Top
                            },
                        }
                    }
                }
            }
            RExpr::Binary(op, a, b) => {
                let av = self.eval(st, a);
                let bv = self.eval(st, b);
                abin(*op, av, bv)
            }
            RExpr::Peek(i) => {
                let idx = self.eval(st, i);
                self.check_peek(st, idx);
                AbsV::input()
            }
            RExpr::Pop => {
                self.check_pop(st);
                st.pops.bump();
                AbsV::input()
            }
            RExpr::Push(v) => {
                let pushed = self.eval(st, v);
                st.pushes.bump();
                pushed
            }
            RExpr::Math(f, args) => {
                let av: Vec<AbsV> = args.iter().map(|a| self.eval(st, a)).collect();
                let known: Option<Vec<Value>> = av
                    .iter()
                    .map(|a| match a.num {
                        Num::Known(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                let deg = if av.iter().all(|a| a.deg == Degree::Const) {
                    Degree::Const
                } else {
                    Degree::Top
                };
                if let Some(vals) = known {
                    if let Ok(v) = f.call(&vals) {
                        return AbsV {
                            num: Num::Known(v),
                            deg,
                        };
                    }
                }
                AbsV { num: Num::Any, deg }
            }
            RExpr::Print { arg, .. } => {
                self.eval(st, arg);
                AbsV::known(Value::Int(0))
            }
            RExpr::PostIncDec { target, inc } => {
                let old = self.read_lvalue(st, target);
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let new = abin(op, old, AbsV::known(Value::Int(1)));
                self.write_lvalue(st, target, new);
                old
            }
        }
    }

    fn check_peek(&mut self, st: &AState, idx: AbsV) {
        let peek = self.decl.peek as i64;
        let Some((il, ih)) = idx.int_range() else {
            self.uncertify("a peek index is not statically an integer constant or bounded range");
            self.lint(
                "peek-range",
                "peek index could not be statically bounded".to_string(),
            );
            return;
        };
        if il < 0 {
            if ih < 0 && self.cond_depth == 0 {
                self.error(format!("peek index is always negative ({il})"));
            } else {
                self.lint("peek-range", format!("peek index may be negative ({il})"));
            }
            self.uncertify("a peek index may be negative");
            return;
        }
        let reach_lo = st.pops.lo.saturating_add(il);
        let reach_hi = st.pops.hi.saturating_add(ih);
        if reach_lo >= peek && self.cond_depth == 0 {
            self.error(format!(
                "peek({il}) after {} pops reads past the declared peek window of {peek}",
                st.pops.lo
            ));
            self.uncertify("a peek provably reads past the declared window");
        } else if reach_hi >= peek {
            self.lint(
                "peek-range",
                format!(
                    "peek index may reach offset {reach_hi} but the declared peek window is {peek}"
                ),
            );
            self.uncertify("a peek may read past the declared window");
        }
    }

    fn check_pop(&mut self, st: &AState) {
        let peek = self.decl.peek as i64;
        if st.pops.lo >= peek && self.cond_depth == 0 {
            self.error(format!(
                "pop() after {} pops reads past the declared peek window of {peek}",
                st.pops.lo
            ));
            self.uncertify("a pop provably reads past the declared window");
        } else if st.pops.hi >= peek {
            self.uncertify("a pop may read past the declared window");
        }
    }
}

fn elem_num(ty: DataType) -> Num {
    match ty {
        DataType::Int => Num::Int(i64::MIN, i64::MAX),
        DataType::Bool => Num::Any,
        _ => Num::FloatAny,
    }
}

/// Models the runtime's store-time coercion into a declared scalar type.
fn coerce(v: AbsV, ty: Option<DataType>) -> AbsV {
    let Some(ty) = ty else { return v };
    match (ty, v.num) {
        (DataType::Float, Num::Known(Value::Int(i))) => AbsV {
            num: Num::Known(Value::Float(i as f64)),
            deg: v.deg,
        },
        (DataType::Float, Num::Int(..)) => AbsV {
            num: Num::FloatAny,
            deg: v.deg,
        },
        _ => v,
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs the framework over both phases of a filter.
///
/// `state` holds the persistent cells after `init` ran; `work_span` /
/// `init_span` anchor phase-level diagnostics (rate mismatches) to the
/// `work` / `initWork` headers.
pub fn analyze_filter(
    state: &HashMap<String, Cell>,
    lowered: &LoweredFilter,
    work: &WorkFn,
    init_work: Option<&WorkFn>,
    work_span: Span,
    init_span: Span,
) -> FilterFacts {
    let n = lowered.globals.len();
    // A global is mutable iff any phase can write it syntactically;
    // everything else keeps its concrete elaboration-time value, which is
    // what makes loop trip counts and peek offsets decidable.
    let mut syn = SynFx::default();
    syn_stmts(&lowered.work.body, &mut syn);
    if let Some(iw) = &lowered.init_work {
        syn_stmts(&iw.body, &mut syn);
    }
    let cells: Vec<Option<&Cell>> = lowered.globals.iter().map(|g| state.get(g)).collect();
    let consts: Vec<Option<&Cell>> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if syn.writes.contains(&Slot::Global(i as u32)) {
                None
            } else {
                *c
            }
        })
        .collect();
    let global_ty: Vec<Option<DataType>> = cells
        .iter()
        .map(|c| match c {
            Some(Cell::Scalar(ty, _)) => Some(*ty),
            _ => None,
        })
        .collect();
    let entry_globals: Vec<AbsV> = cells
        .iter()
        .map(|c| match c {
            Some(Cell::Scalar(ty, _)) => AbsV {
                num: elem_num(*ty),
                deg: Degree::Linear,
            },
            Some(Cell::Array(av)) => AbsV {
                num: elem_num(av.elem),
                deg: Degree::Linear,
            },
            None => AbsV::top(),
        })
        .collect();

    let mut fx = Fx {
        affine_ok: true,
        global_reads: vec![false; n],
        global_writes: vec![None; n],
        ..Fx::default()
    };

    let mut poisoned = false;
    let run_phase = |fx: &mut Fx,
                     code: &LoweredWork,
                     decl: &WorkFn,
                     span: Span,
                     poisoned: &mut bool|
     -> PhaseFacts {
        let mut az = Analyzer {
            decl,
            consts: &consts,
            global_ty: &global_ty,
            fx,
            fuel: ANALYSIS_FUEL,
            poisoned: false,
            cond_depth: 0,
            cur_span: span,
            exit: None,
            uncert: None,
        };
        let entry = AState {
            globals: entry_globals.clone(),
            frame: vec![AbsV::top(); lowered.frame_slots()],
            pops: Ctr::zero(),
            pushes: Ctr::zero(),
        };
        let fall = az.exec_stmts(Some(entry), &code.body);
        let exit = az.exit.take();
        let final_st = match (fall, exit) {
            (Some(a), Some(b)) => AState::join(a, &b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => unreachable!("a body either falls through or returns"),
        };
        if az.poisoned {
            *poisoned = true;
            return PhaseFacts {
                cert: None,
                uncertified: Some("analysis fuel exhausted".to_string()),
                pop_range: (0, UNBOUNDED),
                push_range: (0, UNBOUNDED),
            };
        }
        let mut uncert = az.uncert.take();
        let pops = final_st.pops;
        let pushes = final_st.pushes;
        az.cur_span = span;
        let (dp, du) = (decl.pop as i64, decl.push as i64);
        for (what, verb, ctr, want) in [("pop", "pops", pops, dp), ("push", "pushes", pushes, du)] {
            if want < ctr.lo || want > ctr.hi {
                let got = if ctr.lo == ctr.hi {
                    format!("{}", ctr.lo)
                } else if ctr.hi == UNBOUNDED {
                    format!("at least {}", ctr.lo)
                } else {
                    format!("between {} and {}", ctr.lo, ctr.hi)
                };
                az.error(format!(
                    "declared {what} rate is {want} but the body always {verb} {got}"
                ));
                if uncert.is_none() {
                    uncert = Some(format!("provable {what} rate mismatch"));
                }
            } else if ctr.lo != ctr.hi {
                let hi = if ctr.hi == UNBOUNDED {
                    "unboundedly many".to_string()
                } else {
                    format!("{}", ctr.hi)
                };
                az.lint(
                    "rate-mismatch",
                    format!(
                        "body may {what} between {} and {hi} items per firing; declared {what} rate is {want}",
                        ctr.lo
                    ),
                );
                if uncert.is_none() {
                    uncert = Some(format!(
                        "{what} count varies between paths ({} to {hi})",
                        ctr.lo
                    ));
                }
            }
        }
        let cert = if uncert.is_none() {
            Some(RateCert {
                peek: decl.peek,
                pop: decl.pop,
                push: decl.push,
            })
        } else {
            None
        };
        PhaseFacts {
            cert,
            uncertified: uncert,
            pop_range: (pops.lo, pops.hi),
            push_range: (pushes.lo, pushes.hi),
        }
    };

    let work_facts = run_phase(&mut fx, &lowered.work, work, work_span, &mut poisoned);
    let init_facts = match (init_work, &lowered.init_work) {
        (Some(decl), Some(code)) => Some(run_phase(&mut fx, code, decl, init_span, &mut poisoned)),
        _ => None,
    };

    if poisoned {
        // Analysis gave up: conservative facts, no diagnostics (partial
        // walks could misreport).
        return FilterFacts {
            effect: StateEffect::OpaqueState,
            work: PhaseFacts {
                cert: None,
                uncertified: Some("analysis fuel exhausted".to_string()),
                pop_range: (0, UNBOUNDED),
                push_range: (0, UNBOUNDED),
            },
            init_work: init_facts.map(|_| PhaseFacts {
                cert: None,
                uncertified: Some("analysis fuel exhausted".to_string()),
                pop_range: (0, UNBOUNDED),
                push_range: (0, UNBOUNDED),
            }),
            lints: Vec::new(),
            errors: Vec::new(),
        };
    }

    // Dead stores: a global written on some executed path but read on
    // none (across both phases).
    for g in 0..n {
        if let Some(span) = fx.global_writes[g] {
            if !fx.global_reads[g] {
                fx.lints.push(Lint {
                    code: "dead-store",
                    span,
                    message: format!(
                        "field `{}` is written but its value is never read",
                        lowered.globals[g]
                    ),
                });
            }
        }
    }

    let effect = if fx.writes_state {
        if fx.affine_ok {
            StateEffect::AffineState
        } else {
            StateEffect::OpaqueState
        }
    } else if fx.reads_state {
        StateEffect::ReadsState
    } else {
        StateEffect::Pure
    };

    FilterFacts {
        effect,
        work: work_facts,
        init_work: init_facts,
        lints: fx.lints,
        errors: fx.errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate_named;
    use crate::ir::Stream;

    fn facts(src: &str, name: &str) -> FilterFacts {
        let p = streamlin_lang::parse(src).unwrap();
        let g = elaborate_named(&p, name, &[]).unwrap();
        let mut out = None;
        g.for_each_filter(&mut |inst| {
            if inst.decl_name == name {
                out = Some(inst.facts.clone());
            }
        });
        out.expect("filter not found")
    }

    fn elab_err(src: &str, name: &str) -> String {
        let p = streamlin_lang::parse(src).unwrap();
        match elaborate_named(&p, name, &[]) {
            Ok(_) => panic!("expected elaboration to fail"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn straight_line_filter_certifies_pure() {
        let f = facts(
            "float->float filter F { work peek 2 pop 1 push 1 {
                 push(peek(0) + peek(1)); pop();
             } }",
            "F",
        );
        assert_eq!(f.effect, StateEffect::Pure);
        assert_eq!(
            f.work.cert,
            Some(RateCert {
                peek: 2,
                pop: 1,
                push: 1
            }),
            "{:?}",
            f.work.uncertified
        );
        assert!(f.lints.is_empty(), "{:?}", f.lints);
    }

    #[test]
    fn counted_loop_unrolls_and_certifies() {
        let f = facts(
            "void->float filter F { work push 8 {
                 for (int i = 0; i < 8; i++) push(i);
             } }",
            "F",
        );
        assert!(f.work.cert.is_some(), "{:?}", f.work.uncertified);
        assert_eq!(f.work.push_range, (8, 8));
    }

    #[test]
    fn input_dependent_peek_is_uncertified_with_lint() {
        let f = facts(
            "int->int filter F { work peek 2 pop 1 push 1 {
                 push(peek(pop()));
             } }",
            "F",
        );
        assert!(f.work.cert.is_none());
        assert!(f.work.uncertified.is_some());
        assert!(
            f.lints.iter().any(|l| l.code == "peek-range"),
            "{:?}",
            f.lints
        );
    }

    #[test]
    fn dead_branch_write_is_pruned_from_effects() {
        // The old syntactic walk saw the write under `if (false)` and
        // called this filter stateful; flow-sensitive analysis prunes the
        // dead branch, so fission admissions are a strict superset.
        let f = facts(
            "float->float filter F { float s; work pop 1 push 1 {
                 if (false) s = 1.0;
                 push(pop());
             } }",
            "F",
        );
        assert_eq!(f.effect, StateEffect::Pure);
        assert!(
            f.lints.iter().any(|l| l.code == "constant-condition"),
            "{:?}",
            f.lints
        );
    }

    #[test]
    fn affine_state_update_is_classified_affine() {
        let f = facts(
            "float->float filter F { float s; work pop 1 push 1 {
                 s = s + pop(); push(s);
             } }",
            "F",
        );
        assert_eq!(f.effect, StateEffect::AffineState);
    }

    #[test]
    fn nonlinear_state_update_is_opaque() {
        let f = facts(
            "float->float filter F { float s; work pop 1 push 1 {
                 s = s * (1.0 + pop()); push(s);
             } }",
            "F",
        );
        assert_eq!(f.effect, StateEffect::OpaqueState);
    }

    #[test]
    fn reads_without_writes_is_reads_state() {
        let f = facts(
            "float->float filter F { float s;
                 init { s = 2.0; }
                 work pop 1 push 1 { push(s * pop()); s = s; }
             }",
            "F",
        );
        // `s = s` stores an unchanged affine value; the meaningful part is
        // that a pure read of mutable state is at least ReadsState.
        assert!(f.effect >= StateEffect::ReadsState);
    }

    #[test]
    fn definite_rate_mismatch_fails_elaboration() {
        let err = elab_err("void->float filter F { work push 2 { push(1.0); } }", "F");
        assert!(
            err.contains("declared push rate is 2 but the body always pushes 1"),
            "{err}"
        );
    }

    #[test]
    fn possible_rate_mismatch_lints_but_elaborates() {
        let f = facts(
            "float->float filter F { float x; work pop 1 push 2 {
                 push(pop()); if (x > 0.5) push(x); x = x + 1;
             } }",
            "F",
        );
        assert!(f.work.cert.is_none());
        assert!(
            f.lints.iter().any(|l| l.code == "rate-mismatch"),
            "{:?}",
            f.lints
        );
    }

    #[test]
    fn dead_store_to_field_is_linted() {
        let f = facts(
            "float->float filter F { float s; work pop 1 push 1 {
                 s = pop(); push(1.0);
             } }",
            "F",
        );
        assert!(
            f.lints.iter().any(|l| l.code == "dead-store"),
            "{:?}",
            f.lints
        );
    }

    #[test]
    fn unused_field_and_param_are_linted() {
        let src = "float->float filter F(int n) { float unused;
             work pop 1 push 1 { push(pop()); } }";
        let p = streamlin_lang::parse(src).unwrap();
        let g = elaborate_named(&p, "F", &[Value::Int(3)]).unwrap();
        let Stream::Filter(inst) = &g else { panic!() };
        let codes: Vec<&str> = inst.facts.lints.iter().map(|l| l.code).collect();
        assert!(codes.contains(&"unused-param"), "{codes:?}");
        assert!(codes.contains(&"unused-field"), "{codes:?}");
    }

    #[test]
    fn undecidable_loop_widens_instead_of_diverging() {
        let f = facts(
            "float->float filter F { float x; work pop 1 push 1 {
                 while (x < pop()) x = x + 1.0;
                 push(x);
             } }",
            "F",
        );
        // The analysis must terminate and stay conservative: the loop's
        // trip count is input-dependent, so the write to `x` is unbounded.
        assert_eq!(f.effect, StateEffect::OpaqueState);
    }
}
