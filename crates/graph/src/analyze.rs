//! Verified-filter dataflow framework: one flow-sensitive abstract
//! interpretation of the lowered work bodies ([`crate::lower`]), walked
//! once per phase at elaboration.
//!
//! The paper's compiler symbolically executes work functions to extract
//! linear coefficients (§3.2). This module generalises that move: one
//! walk of each phase, in one value domain, and four kinds of facts read
//! off it.
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
//! 2. **Lints** — [`Lint`]s with spans: dead field stores, constant
//!    conditions, possibly-out-of-range peeks, possible rate mismatches.
//!    The walk is flow-sensitive, so a store that only happens in a
//!    provably-dead branch is no store. (Unused-field/-parameter lints are
//!    added at elaboration, which still sees the source names.)
//! 3. **The linear verdict** — [`FilterFacts::linear`]: the coefficients of
//!    the filter's linear node, or why it has none and the statement that
//!    decided it ([`crate::linear`]). `streamlin-core` reads it; it does
//!    not walk the body again.
//! 4. **Plumbing** — [`Plumbing`]: a sink that prints or discards exactly
//!    what it pops, or a ring-buffer source that pushes a constant table
//!    at a counter stepped mod `m`. The runtime runs such a filter as a
//!    native node, so the proof includes everything that makes the node
//!    equal to the filter: same items, no fault, no operation to tally.
//!
//! **One value per cell.** A cell of the walk holds exactly one of: a
//! concrete [`Value`], an integer interval, an affine form (a
//! [`crate::form::Terms`] plus a constant), or ⊤; an interval and ⊤ carry
//! the span of the statement at which the value stopped being affine. The
//! *rate reading* of a cell is its value, its interval, or nothing (a form
//! is an unknown float read off the tape); the *linear reading* is the
//! value as a constant, the form, or ⊤ since that span. So a decided
//! index, loop counter or table read is built, folded and joined once, and
//! a branch an interval decides is decided for both readings. A linear
//! refusal (a print, an undecided loop, branches that pop differently) is
//! recorded where it is decided and stops only the linear reading: the
//! walk goes on for the rate facts.
//!
//! **One budget.** A phase's walk takes at most [`ANALYSIS_FUEL`] steps and
//! unrolls a decided loop at most [`MAX_UNROLL`] trips; past that bound the
//! rate reading widens the loop and the linear reading refuses it
//! `Unresolved`. The steps a filter's walks took are a fact too
//! ([`FilterFacts::walk_steps`]), so `streamlinc --metrics` can name the
//! filters that make a compile slow.
//!
//! **What is here** is one domain, its drivers and the plumbing domain.
//! Statement order, scoping, typed stores, indexing, branching, unrolling,
//! fuel — and constant folding, by the runtime tiers' own
//! `bin_op`/`un_op`/`MathFn::call` — are [`crate::absint::walk`]'s: a
//! certificate or a coefficient cannot disagree with execution about
//! control flow or about a value. This file supplies `WorkDomain` (the
//! values above, interval tape counters with the values pushed, lint,
//! certificate and refusal accounting), [`analyze_filter`], which binds the
//! entry state, checks the final counters against the declared rates and
//! reads the verdict off the end state, [`linear_pieces`], the same domain
//! with state components bound (`streamlin-core`'s stateful extraction),
//! and `PlumbingDomain`, walked only on filters whose declared rates admit
//! a native node. It matches no node of the slot IR: which slots a phase or
//! a loop can write is the [`Effects`] the lowerer recorded.

use std::collections::HashMap;
use std::sync::Arc;

use streamlin_lang::ast::{BinOp, DataType, UnOp};
use streamlin_lang::token::Span;

use crate::absint::{walk, ACell, Domain, State};
use crate::form::Terms;
use crate::ir::{FilterInst, WorkFn};
use crate::linear::{lin_bin, lin_un, LinForm, LinearFact, LinearRows, NonLinear, Piece, Pieces};
use crate::lower::{Effects, LoweredFilter, LoweredWork, Slot};
use crate::value::{Cell, EvalError, MathFn, Value};

/// Sentinel for "no static bound" in pop/push counters.
const UNBOUNDED: i64 = i64::MAX;

/// Abstract steps (statements and loop tests) the walk of one phase may
/// take. Past them the walk gives up: conservative rate facts, and the
/// linear reading refused `Unresolved`.
pub const ANALYSIS_FUEL: u64 = 2_000_000;

/// Trips of a decided loop the walk unrolls. A loop that goes on past them
/// is widened by the rate reading, like one whose test is undecided, and
/// refused `Unresolved` at the loop by the linear reading.
pub const MAX_UNROLL: u64 = 65_536;

// ---------------------------------------------------------------------------
// Public facts
// ---------------------------------------------------------------------------

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
/// consult this record rather than re-deriving facts syntactically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilterFacts {
    /// Facts for the steady-state work phase.
    pub work: PhaseFacts,
    /// Facts for the optional first-firing phase.
    pub init_work: Option<PhaseFacts>,
    /// Advisory diagnostics.
    pub lints: Vec<Lint>,
    /// Provable violations (non-empty fails elaboration).
    pub errors: Vec<AnalysisError>,
    /// What the filter is, if the runtime runs it as a native node.
    pub plumbing: Option<Plumbing>,
    /// The linear verdict on the work phase, which `streamlin-core` builds
    /// its linear nodes from. Shared: a copy of the instance (`flatten`
    /// makes one per interpreted node) holds the coefficients once.
    pub linear: Arc<LinearFact>,
    /// Steps the walks of the filter's phases took, each phase on its own
    /// [`ANALYSIS_FUEL`]; `streamlinc --metrics` names the heaviest.
    pub walk_steps: u64,
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
// Abstract values
// ---------------------------------------------------------------------------

/// One abstract scalar, read two ways (see the module docs).
#[derive(Debug, Clone, PartialEq)]
enum Num {
    /// Exactly this concrete value on every path.
    Known(Value),
    /// An integer in `[lo, hi]`; not affine since the span.
    Int(i64, i64, Span),
    /// An affine form with at least one term: a float read off the tape.
    Form(LinForm),
    /// Anything; not affine since the span.
    Top(Span),
}

impl Num {
    /// Integer range, if this value is provably an integer.
    fn int_range(&self) -> Option<(i64, i64)> {
        match *self {
            Num::Known(Value::Int(v)) => Some((v, v)),
            Num::Int(lo, hi, _) => Some((lo, hi)),
            _ => None,
        }
    }

    /// The statement at which the linear reading went ⊤, if it did.
    fn top_since(&self) -> Option<Span> {
        match *self {
            Num::Int(.., at) | Num::Top(at) => Some(at),
            _ => None,
        }
    }

    /// The linear reading of a value that is not ⊤.
    fn into_form(self) -> LinForm {
        match self {
            Num::Known(v) => LinForm::constant(v),
            Num::Form(f) => f,
            _ => unreachable!("an interval or ⊤ has no affine reading"),
        }
    }

    /// A form, or the constant it is once its last term cancelled.
    fn of_form(f: LinForm) -> Num {
        match f.is_const() {
            true => Num::Known(f.konst),
            false => Num::Form(f),
        }
    }

    /// Some value of type `ty`, not affine since `at`.
    fn any(ty: DataType, at: Span) -> Num {
        match ty {
            DataType::Int => Num::Int(i64::MIN, i64::MAX, at),
            _ => Num::Top(at),
        }
    }
}

fn clamp128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// An integer operator on ranges, not both decided: interval arithmetic
/// (clamped, never wraps — a clamped bound only widens the range, which
/// is sound), or a comparison decided when the ranges permit. The result
/// is not affine since `at`.
fn int_op(op: BinOp, a: (i64, i64), b: (i64, i64), at: Span) -> Num {
    let (al, ah, bl, bh) = (a.0 as i128, a.1 as i128, b.0 as i128, b.1 as i128);
    let range = |lo: i128, hi: i128| Num::Int(clamp128(lo), clamp128(hi), at);
    let decided = match op {
        BinOp::Add => return range(al + bl, ah + bh),
        BinOp::Sub => return range(al - bh, ah - bl),
        BinOp::Mul => {
            let c = [al * bl, al * bh, ah * bl, ah * bh];
            let (lo, hi) = (c.iter().min(), c.iter().max());
            return range(*lo.expect("non-empty"), *hi.expect("non-empty"));
        }
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
    decided.map_or(Num::Top(at), |v| Num::Known(Value::Bool(v)))
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

/// A value taken apart as an affine piece, or `not_affine` where it
/// stopped being one.
fn piece(v: Num, not_affine: NonLinear) -> Result<Piece, (NonLinear, Span)> {
    let (terms, konst) = match v {
        Num::Known(k) => (Terms::Zero, k),
        Num::Form(f) => (f.terms, f.konst),
        Num::Int(.., at) | Num::Top(at) => return Err((not_affine, at)),
    };
    match konst.as_f64() {
        Ok(konst) => Ok(Piece { terms, konst }),
        Err(_) => Err((not_affine, Span::default())),
    }
}

// ---------------------------------------------------------------------------
// Tape counters
// ---------------------------------------------------------------------------

/// Saturating pop/push counter interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Ctr {
    lo: i64,
    hi: i64,
}

impl Ctr {
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

/// The abstract tape: how many items may have been popped and pushed,
/// and, while the linear reading stands (the counts are then exact), the
/// values pushed.
#[derive(Debug, Clone, PartialEq, Default)]
struct Tape {
    pops: Ctr,
    pushes: Ctr,
    pushed: Vec<Num>,
}

// ---------------------------------------------------------------------------
// The domain
// ---------------------------------------------------------------------------

/// The values above, interval tape counters, and the lint, certificate
/// and refusal accounting of one filter.
struct WorkDomain<'a> {
    /// Declared rates of the phase under analysis.
    decl: &'a WorkFn,
    /// Span of the statement in hand.
    span: Span,
    /// False if the statement in hand executes on every firing, which is
    /// what upgrades a possible violation to a provable one.
    conditional: bool,
    /// First reason certification of the phase failed, if any.
    uncert: Option<String>,
    /// The linear reading's refusal, once it has one: the first, and the
    /// statement that decided it.
    refused: Option<(NonLinear, Span)>,
    /// Fuel the walks spent.
    steps: u64,
    // Global accesses, accumulated across both phases.
    global_reads: Vec<bool>,
    global_writes: Vec<Option<Span>>,
    lints: Vec<Lint>,
    errors: Vec<AnalysisError>,
}

impl<'a> WorkDomain<'a> {
    fn new(decl: &'a WorkFn, globals: usize) -> Self {
        WorkDomain {
            decl,
            span: Span::default(),
            conditional: false,
            uncert: None,
            refused: None,
            steps: 0,
            global_reads: vec![false; globals],
            global_writes: vec![None; globals],
            lints: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn uncertify(&mut self, reason: impl Into<String>) {
        if self.uncert.is_none() {
            self.uncert = Some(reason.into());
        }
    }

    /// Ends the linear reading here, unless it has already ended.
    fn refuse(&mut self, why: impl FnOnce() -> NonLinear) {
        if self.refused.is_none() {
            self.refused = Some((why(), self.span));
        }
    }

    fn lint(&mut self, code: &'static str, message: String) {
        let lint = Lint {
            code,
            span: self.span,
            message,
        };
        if !self.lints.contains(&lint) {
            self.lints.push(lint);
        }
    }

    fn error(&mut self, message: String) {
        self.errors.push(AnalysisError {
            span: self.span,
            message,
        });
    }

    fn check_peek(&mut self, tape: &Tape, idx: &Num) {
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
            if ih < 0 && !self.conditional {
                self.error(format!("peek index is always negative ({il})"));
            } else {
                self.lint("peek-range", format!("peek index may be negative ({il})"));
            }
            self.uncertify("a peek index may be negative");
            return;
        }
        let reach_lo = tape.pops.lo.saturating_add(il);
        let reach_hi = tape.pops.hi.saturating_add(ih);
        if reach_lo >= peek && !self.conditional {
            self.error(format!(
                "peek({il}) after {} pops reads past the declared peek window of {peek}",
                tape.pops.lo
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

    fn check_pop(&mut self, tape: &Tape) {
        let peek = self.decl.peek as i64;
        if tape.pops.lo >= peek && !self.conditional {
            self.error(format!(
                "pop() after {} pops reads past the declared peek window of {peek}",
                tape.pops.lo
            ));
            self.uncertify("a pop provably reads past the declared window");
        } else if tape.pops.hi >= peek {
            self.uncertify("a pop may read past the declared window");
        }
    }

    /// The tape item `offset` past the pops so far: the form
    /// `1·peek(pos)`, if the position is decided and inside the declared
    /// window. The pops are exact while the linear reading stands.
    fn tape_item(&mut self, tape: &Tape, offset: usize) -> Num {
        let Ctr { lo, hi } = tape.pops;
        if lo != hi {
            return Num::Top(self.span);
        }
        let (pos, peek) = ((lo as usize).saturating_add(offset), self.decl.peek);
        if pos >= peek {
            self.refuse(|| NonLinear::PeekOutOfRange { pos, peek });
            return Num::Top(self.span);
        }
        Num::Form(LinForm::unit(pos))
    }
}

impl Domain for WorkDomain<'_> {
    type Value = Num;
    type Tape = Tape;
    /// Why the walk stopped: a fault, or no way to go on. It ends the rate
    /// reading with conservative facts, and is the linear refusal unless
    /// one came first.
    type Stop = NonLinear;
    const MAX_UNROLL: u64 = MAX_UNROLL;

    fn at(&mut self, span: Span, conditional: bool) {
        (self.span, self.conditional) = (span, conditional);
    }

    fn literal(&mut self, v: Value) -> Num {
        Num::Known(v)
    }

    fn top(&mut self) -> Num {
        Num::Top(self.span)
    }

    fn concrete(&mut self, v: &Num) -> Option<Value> {
        match *v {
            Num::Known(v) => Some(v),
            _ => None,
        }
    }

    fn un_op(&mut self, op: UnOp, a: Num) -> Num {
        match a {
            Num::Int(lo, hi, at) if op == UnOp::Neg => {
                Num::Int(clamp128(-(hi as i128)), clamp128(-(lo as i128)), at)
            }
            Num::Form(f) => lin_un(op, f).map_or(Num::Top(self.span), Num::of_form),
            a => Num::Top(a.top_since().unwrap_or(self.span)),
        }
    }

    /// Forms combine affinely or go ⊤ here; anything ⊤ keeps the place it
    /// went ⊤, and integers keep their range.
    fn bin_op(&mut self, op: BinOp, a: Num, b: Num) -> Num {
        match a.top_since().or(b.top_since()) {
            None => {
                lin_bin(op, a.into_form(), b.into_form()).map_or(Num::Top(self.span), Num::of_form)
            }
            Some(at) => match (a.int_range(), b.int_range()) {
                (Some(x), Some(y)) => int_op(op, x, y, at),
                _ => Num::Top(at),
            },
        }
    }

    /// An intrinsic of anything but constants is ⊤.
    fn math(&mut self, _f: MathFn, args: &[Num]) -> Num {
        Num::Top(args.iter().find_map(Num::top_since).unwrap_or(self.span))
    }

    /// The runtime's store-time coercion into the declared scalar type
    /// ([`Value::coerce_to`] on a constant or a form's constant part). A
    /// store the runtime would refuse is ⊤.
    fn coerce(&mut self, v: Num, ty: DataType) -> Result<Num, NonLinear> {
        Ok(match v {
            Num::Known(k) => k.coerce_to(ty).map_or(Num::Top(self.span), Num::Known),
            Num::Int(.., at) if ty == DataType::Float => Num::Top(at),
            Num::Form(mut f) => match f.konst.coerce_to(ty) {
                Ok(k) if ty == DataType::Float => {
                    f.konst = k;
                    Num::Form(f)
                }
                _ => Num::Top(self.span),
            },
            v => v,
        })
    }

    /// Equal values stay; integers join to the range covering both; the
    /// rest is ⊤ — since where either side already was, or here.
    fn join(&mut self, a: &mut Num, b: &Num) {
        match (&*a, b) {
            (Num::Known(x), Num::Known(y)) if x == y => {}
            (Num::Form(x), Num::Form(y)) if x == y => {}
            _ => {
                let at = (a.top_since().or(b.top_since())).unwrap_or(self.span);
                *a = match a.int_range().zip(b.int_range()) {
                    Some(((al, ah), (bl, bh))) => Num::Int(al.min(bl), ah.max(bh), at),
                    None => Num::Top(at),
                };
            }
        }
    }

    /// The counters join to intervals. For the linear reading the two
    /// sides must agree structurally, or no single linear node represents
    /// the filter.
    fn join_tapes(&mut self, a: &mut Tape, b: Tape) -> Result<(), NonLinear> {
        if self.refused.is_none() {
            let (popped, pushed) = ((a.pops.lo, b.pops.lo), (a.pushed.len(), b.pushed.len()));
            if popped.0 != popped.1 {
                let (x, y) = popped;
                self.refuse(|| {
                    NonLinear::BranchMismatch(format!(
                        "branches pop different amounts ({x} vs {y})"
                    ))
                });
            } else if pushed.0 != pushed.1 {
                let (x, y) = pushed;
                self.refuse(|| {
                    NonLinear::BranchMismatch(format!(
                        "branches push different amounts ({x} vs {y})"
                    ))
                });
            } else {
                for (x, y) in a.pushed.iter_mut().zip(&b.pushed) {
                    self.join(x, y);
                }
            }
        }
        a.pops = Ctr::join(a.pops, b.pops);
        a.pushes = Ctr::join(a.pushes, b.pushes);
        Ok(())
    }

    /// Some element of the array: any value of its element type.
    fn any_element(&mut self, _slot: Slot, ty: DataType, _constant: bool, _idx: &[Num]) -> Num {
        Num::any(ty, self.span)
    }

    fn peek(&mut self, tape: &mut Tape, i: Num) -> Result<Num, NonLinear> {
        self.check_peek(tape, &i);
        match i {
            Num::Known(i) => match i.as_index() {
                Ok(offset) => return Ok(self.tape_item(tape, offset)),
                Err(e) => self.refuse(|| NonLinear::Unsupported(e.message)),
            },
            _ => self.refuse(|| {
                NonLinear::Unresolved("array index or size depends on the input".into())
            }),
        }
        Ok(Num::Top(self.span))
    }

    fn pop(&mut self, tape: &mut Tape) -> Result<Num, NonLinear> {
        self.check_pop(tape);
        let v = self.tape_item(tape, 0);
        tape.pops.bump();
        Ok(v)
    }

    fn push(&mut self, tape: &mut Tape, v: Num) -> Result<(), NonLinear> {
        tape.pushes.bump();
        if self.refused.is_none() {
            tape.pushed.push(v);
        }
        Ok(())
    }

    /// A side effect that collapsing would erase.
    fn print(&mut self, _v: Num, _newline: bool) -> Result<(), NonLinear> {
        self.refuse(|| NonLinear::Prints);
        Ok(())
    }

    /// The statement fails the same way at run time under both tiers, on
    /// the checked tape path conservative facts leave it on.
    fn fault(&mut self, e: EvalError) -> NonLinear {
        NonLinear::Unsupported(e.message)
    }

    /// Loop conditions must resolve to constants so the loop can be fully
    /// unrolled, and so must sizes; otherwise the filter is disregarded
    /// (§3.2).
    fn give_up(&mut self, why: &'static str) -> NonLinear {
        NonLinear::Unresolved(why.into())
    }

    /// Widening: the engine clobbers everything the loop can write; here
    /// the tape counters saturate if it touches the tape. The linear
    /// reading cannot unroll the loop, so it ends here.
    fn undecided_loop(
        &mut self,
        tape: &mut Tape,
        fx: &Effects,
        past_unroll: bool,
    ) -> Result<(), NonLinear> {
        if fx.pops {
            tape.pops.hi = UNBOUNDED;
        }
        if fx.pushes {
            tape.pushes.hi = UNBOUNDED;
        }
        if fx.pops || fx.pushes || fx.peeks {
            self.uncertify(format!(
                "a loop at {} with a statically unresolved trip count touches the tape",
                self.span
            ));
        }
        self.refuse(|| {
            NonLinear::Unresolved(match past_unroll {
                true => format!("loop runs past the unroll bound of {MAX_UNROLL} trips"),
                false => "loop bound depends on the input or on ⊤ state".into(),
            })
        });
        Ok(())
    }

    fn constant_condition(&mut self, taken: bool) {
        self.lint(
            "constant-condition",
            format!("`if` condition is always {taken}"),
        );
    }

    fn read(&mut self, slot: Slot) {
        if let Slot::Global(g) = slot {
            self.global_reads[g as usize] = true;
        }
    }

    fn wrote(&mut self, slot: Slot, _idx: &[Num]) {
        if let Slot::Global(g) = slot {
            self.global_writes[g as usize].get_or_insert(self.span);
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// The walk state of one phase.
type WorkState<'c> = State<'c, Num, Tape>;

/// The span of a phase's first statement: where state that is ⊤ on entry
/// went ⊤.
fn entry_span(code: &LoweredWork) -> Span {
    code.body.first().map_or(Span::default(), |s| s.span())
}

impl<'a> WorkDomain<'a> {
    /// Walks one phase on its own [`ANALYSIS_FUEL`] and checks what it
    /// popped and pushed against `decl`; `span` anchors the rate
    /// diagnostics to the phase header. Returns the phase's facts and the
    /// state the walk ended in.
    fn phase<'c>(
        &mut self,
        globals: Vec<ACell<'c, Num>>,
        frame_slots: usize,
        code: &LoweredWork,
        decl: &'a WorkFn,
        span: Span,
    ) -> Result<(PhaseFacts, WorkState<'c>), NonLinear> {
        (self.decl, self.uncert, self.span) = (decl, None, entry_span(code));
        let mut fuel = ANALYSIS_FUEL;
        let end = walk(
            self,
            &mut fuel,
            globals,
            frame_slots,
            Tape::default(),
            &code.body,
        );
        self.steps += ANALYSIS_FUEL - fuel;
        let end = end?;
        let (pops, pushes) = (end.tape.pops, end.tape.pushes);
        self.at(span, false);
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
                self.error(format!(
                    "declared {what} rate is {want} but the body always {verb} {got}"
                ));
                self.uncertify(format!("provable {what} rate mismatch"));
            } else if ctr.lo != ctr.hi {
                let hi = if ctr.hi == UNBOUNDED {
                    "unboundedly many".to_string()
                } else {
                    format!("{}", ctr.hi)
                };
                self.lint(
                    "rate-mismatch",
                    format!(
                        "body may {what} between {} and {hi} items per firing; declared {what} rate is {want}",
                        ctr.lo
                    ),
                );
                self.uncertify(format!(
                    "{what} count varies between paths ({} to {hi})",
                    ctr.lo
                ));
            }
        }
        let facts = PhaseFacts {
            cert: self.uncert.is_none().then_some(RateCert {
                peek: decl.peek,
                pop: decl.pop,
                push: decl.push,
            }),
            uncertified: self.uncert.take(),
            pop_range: (pops.lo, pops.hi),
            push_range: (pushes.lo, pushes.hi),
        };
        Ok((facts, end))
    }

    /// The linear reading of a walk: its refusal, or the affine pieces of
    /// the end state — one per push, and one per state slot (`names` are
    /// the globals', for the refusal's text) — once the executed pop and
    /// push counts are checked against the declared rates.
    fn pieces(
        &mut self,
        end: Result<WorkState<'_>, NonLinear>,
        state_slots: &[u32],
        names: &[String],
    ) -> Result<Pieces, (NonLinear, Span)> {
        if let Some(refused) = self.refused.take() {
            return Err(refused);
        }
        let State { globals, tape, .. } = end.map_err(|stop| (stop, self.span))?;
        let decl = self.decl;
        let (popped, pushed) = (tape.pops.lo as usize, tape.pushed);
        if popped != decl.pop {
            let (declared, actual) = (decl.pop, popped);
            let why = NonLinear::PopCountMismatch { declared, actual };
            return Err((why, Span::default()));
        }
        if pushed.len() != decl.push {
            let (declared, actual) = (decl.push, pushed.len());
            let why = NonLinear::PushCountMismatch { declared, actual };
            return Err((why, Span::default()));
        }
        let outputs = (pushed.into_iter().enumerate())
            .map(|(index, v)| piece(v, NonLinear::PushedNonAffine { index }))
            .collect::<Result<_, _>>()?;
        let mut next_state = Vec::with_capacity(state_slots.len());
        for &g in state_slots {
            let ACell::Scalar(_, v) = &globals[g as usize] else {
                unreachable!("state slots are written scalar globals")
            };
            let name = &names[g as usize];
            next_state.push(piece(
                v.clone(),
                NonLinear::Unsupported(format!(
                    "final value of field `{name}` is not an affine function of inputs and state"
                )),
            )?);
        }
        Ok(Pieces {
            outputs,
            next_state,
        })
    }
}

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
    // A global is mutable iff any phase can write it — its entry value is
    // then any value of its type, ⊤ since the phase's first statement
    // ("if a filter has persistent state, all accesses to that state are
    // marked as ⊤"); everything else keeps its concrete elaboration-time
    // value, which is what makes loop trip counts and peek offsets
    // decidable.
    let entry = |code: &LoweredWork| -> Vec<ACell<'_, Num>> {
        let at = entry_span(code);
        (lowered.globals.iter().zip(0u32..))
            .map(|(name, g)| match lowered.may_write(Slot::Global(g)) {
                false => ACell::Const(&state[name]),
                true => ACell::from_cell(&state[name], |ty, _| Num::any(ty, at)),
            })
            .collect()
    };
    let frame = lowered.frame_slots();
    let mut dom = WorkDomain::new(work, n);
    if init_work.is_some() {
        // The stateless linear node cannot express a first firing that
        // differs from the steady state.
        dom.refused = Some((NonLinear::HasInitWork, Span::default()));
    }
    let worked = dom.phase(entry(&lowered.work), frame, &lowered.work, work, work_span);
    let (worked, end) = match worked {
        Ok((facts, end)) => (Ok(facts), Ok(end)),
        Err(stop) => (Err(stop.clone()), Err(stop)),
    };
    let linear = Arc::new(match dom.pieces(end, &[], &lowered.globals) {
        Ok(p) => LinearFact::Linear(LinearRows::from_outputs(work.peek, work.pop, &p.outputs)),
        Err((why, at)) => LinearFact::Refused(why, at),
    });
    let phases = worked.and_then(|w| {
        let init = match init_work.zip(lowered.init_work.as_ref()) {
            Some((decl, code)) => Some(dom.phase(entry(code), frame, code, decl, init_span)?.0),
            None => None,
        };
        Ok((w, init))
    });
    let walk_steps = dom.steps;
    let (work_facts, init_facts) = match phases {
        Ok(facts) => facts,
        // The analysis gave up: conservative facts, no diagnostics
        // (partial walks could misreport).
        Err(stop) => {
            let why = match stop {
                NonLinear::Unresolved(why) | NonLinear::Unsupported(why) => why,
                other => other.to_string(),
            };
            let gave_up = PhaseFacts {
                cert: None,
                uncertified: Some(why),
                pop_range: (0, UNBOUNDED),
                push_range: (0, UNBOUNDED),
            };
            return FilterFacts {
                init_work: init_work.map(|_| gave_up.clone()),
                work: gave_up,
                linear,
                walk_steps,
                ..FilterFacts::default()
            };
        }
    };

    // Dead stores: a global written on some executed path but read on
    // none (across both phases).
    for g in 0..n {
        if let Some(span) = dom.global_writes[g] {
            if !dom.global_reads[g] {
                dom.lints.push(Lint {
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

    FilterFacts {
        work: work_facts,
        init_work: init_facts,
        lints: dom.lints,
        errors: dom.errors,
        plumbing: plumbing(state, lowered, work, init_work.is_some()),
        linear,
        walk_steps,
    }
}

/// The linear reading of `inst`'s work phase with global slot
/// `state_slots[k]` bound to state component `k` — the form `1·s_k`, keyed
/// after every tape position — every other global `work` writes ⊤, and
/// the rest their elaboration-time constants: the one walk's domain under
/// the stateful binding (§7.1), on the same fuel and unroll bound. Returns
/// the affine pieces of the outputs and of the state's next value, or the
/// refusal and where it was decided.
///
/// # Errors
///
/// The first [`NonLinear`] reason, with its span.
pub fn linear_pieces(inst: &FilterInst, state_slots: &[u32]) -> Result<Pieces, (NonLinear, Span)> {
    let (lowered, decl) = (&inst.lowered, &inst.work);
    let at = entry_span(&lowered.work);
    let globals = (lowered.globals.iter().zip(0u32..))
        .map(|(name, g)| {
            let cell = &inst.state[name];
            match state_slots.iter().position(|s| *s == g) {
                Some(k) => ACell::from_cell(cell, |_, _| Num::Form(LinForm::unit(decl.peek + k))),
                None if lowered.work.fx.may_write(Slot::Global(g)) => {
                    ACell::from_cell(cell, |ty, _| Num::any(ty, at))
                }
                None => ACell::Const(cell),
            }
        })
        .collect();
    let mut dom = WorkDomain::new(decl, lowered.globals.len());
    let frame = lowered.work.frame_slots;
    let end = dom.phase(globals, frame, &lowered.work, decl, Span::default());
    dom.pieces(end.map(|(_, end)| end), state_slots, &lowered.globals)
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

/// A filter the runtime runs as a native node: the same items pushed and
/// printed, the same rates, and no floating-point operation to tally.
#[derive(Debug, Clone, PartialEq)]
pub enum Plumbing {
    /// `work pop P` that prints its `P` items, in order, one per line.
    PrintSink {
        /// Items consumed (= printed) per firing.
        pop: usize,
    },
    /// `work pop P` that pops its `P` items and does nothing else.
    DiscardSink {
        /// Items consumed per firing.
        pop: usize,
    },
    /// A ring-buffer source: `work push 1` pushes `table[c]` and steps
    /// `c = (c + 1) % m`, so it pushes the table's first `m` elements
    /// cyclically.
    Periodic {
        /// The cycle: `table[..m]` after `init`.
        values: Arc<[f64]>,
        /// `c` after `init`, inside `0..m`.
        pos: usize,
    },
}

/// A value of a plumbing candidate's work phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pv {
    /// A literal, or a global no phase writes.
    Known(Value),
    /// The `k`-th item this firing popped.
    Popped(usize),
    /// The entry value of the `int` global `c`.
    Counter(u32),
    /// `c + 1`.
    Succ(u32),
    /// `(c + 1) % m`.
    Next(u32, usize),
    /// `table[c]`, a `float` table no phase writes.
    Elem(u32, u32),
    /// Anything else.
    Top,
}

/// Items popped and the values pushed.
#[derive(Debug, Clone, Default)]
struct Items {
    popped: usize,
    pushed: Vec<Pv>,
}

/// The walk of a plumbing candidate. It decides nothing (`concrete` is
/// always `None`), so every operation reaches the domain unfolded, and
/// any but the counter's `+ 1` and `% m` refuses the filter: an accepted
/// phase runs no floating-point operation and cannot fault. Every branch
/// is undecided, and the engine joins the states after one: a join
/// refuses, so an accepted phase is straight-line code.
#[derive(Default)]
struct PlumbingDomain {
    refused: bool,
    /// Items printed, each the next popped one.
    printed: usize,
    /// Globals stored to.
    wrote: Vec<u32>,
    /// The table element read (at most one read is accepted).
    elem: Option<Pv>,
}

impl PlumbingDomain {
    fn refuse(&mut self) -> Pv {
        self.refused = true;
        Pv::Top
    }
}

impl Domain for PlumbingDomain {
    type Value = Pv;
    type Tape = Items;
    type Stop = ();

    fn at(&mut self, _span: Span, _conditional: bool) {}
    fn literal(&mut self, v: Value) -> Pv {
        Pv::Known(v)
    }
    fn top(&mut self) -> Pv {
        Pv::Top
    }
    fn concrete(&mut self, _v: &Pv) -> Option<Value> {
        None
    }
    fn un_op(&mut self, _op: UnOp, _a: Pv) -> Pv {
        self.refuse()
    }
    fn bin_op(&mut self, op: BinOp, a: Pv, b: Pv) -> Pv {
        match (op, a, b) {
            (BinOp::Add, Pv::Counter(c), Pv::Known(Value::Int(1)))
            | (BinOp::Add, Pv::Known(Value::Int(1)), Pv::Counter(c)) => Pv::Succ(c),
            (BinOp::Rem, Pv::Succ(c), Pv::Known(Value::Int(m))) if m > 0 => Pv::Next(c, m as usize),
            _ => self.refuse(),
        }
    }
    fn math(&mut self, _f: MathFn, _args: &[Pv]) -> Pv {
        self.refuse()
    }
    fn coerce(&mut self, v: Pv, ty: DataType) -> Result<Pv, ()> {
        Ok(match v {
            Pv::Counter(_) | Pv::Succ(_) | Pv::Next(..) if ty == DataType::Int => v,
            _ => Pv::Top,
        })
    }
    fn join(&mut self, a: &mut Pv, _b: &Pv) {
        *a = Pv::Top;
    }
    fn join_tapes(&mut self, _a: &mut Items, _b: Items) -> Result<(), ()> {
        Err(())
    }
    fn any_element(&mut self, slot: Slot, ty: DataType, constant: bool, idx: &[Pv]) -> Pv {
        match (slot, idx) {
            (Slot::Global(t), &[Pv::Counter(c)])
                if constant && ty == DataType::Float && self.elem.is_none() =>
            {
                *self.elem.insert(Pv::Elem(t, c))
            }
            _ => self.refuse(),
        }
    }
    fn peek(&mut self, _tape: &mut Items, _i: Pv) -> Result<Pv, ()> {
        Err(())
    }
    fn pop(&mut self, tape: &mut Items) -> Result<Pv, ()> {
        tape.popped += 1;
        Ok(Pv::Popped(tape.popped - 1))
    }
    fn push(&mut self, tape: &mut Items, v: Pv) -> Result<(), ()> {
        tape.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Pv, newline: bool) -> Result<(), ()> {
        (newline && v == Pv::Popped(self.printed))
            .then(|| self.printed += 1)
            .ok_or(())
    }
    fn fault(&mut self, _e: EvalError) {}
    fn give_up(&mut self, _why: &'static str) {}
    fn wrote(&mut self, slot: Slot, idx: &[Pv]) {
        if let Slot::Global(g) = slot {
            self.refused |= !idx.is_empty();
            self.wrote.push(g);
        }
    }
}

/// The plumbing fact of a filter whose declared rates admit a native
/// node: `push 0, pop = peek > 0` (a sink) or `push 1, pop 0, peek 0` (a
/// source), without `initWork`. `state` holds the cells after `init`.
fn plumbing(
    state: &HashMap<String, Cell>,
    lowered: &LoweredFilter,
    work: &WorkFn,
    init_work: bool,
) -> Option<Plumbing> {
    let sink = work.push == 0 && work.pop > 0 && work.peek == work.pop;
    if init_work || !(sink || (work.push, work.pop, work.peek) == (1, 0, 0)) {
        return None;
    }
    let cell = |g: u32| &state[&lowered.globals[g as usize]];
    let globals = (0..lowered.globals.len() as u32)
        .map(|g| match (lowered.may_write(Slot::Global(g)), cell(g)) {
            (false, cell) => ACell::Const(cell),
            (true, Cell::Scalar(DataType::Int, _)) => ACell::Scalar(DataType::Int, Pv::Counter(g)),
            (true, cell) => ACell::from_cell(cell, |_, _| Pv::Top),
        })
        .collect();
    let mut dom = PlumbingDomain::default();
    // An accepted phase is one statement per item popped, or two.
    let (mut fuel, code, tape) = (work.pop as u64 + 2, &lowered.work, Items::default());
    let end = walk(
        &mut dom,
        &mut fuel,
        globals,
        code.frame_slots,
        tape,
        &code.body,
    )
    .ok()?;
    if dom.refused {
        return None;
    }
    let Items { popped, pushed } = end.tape;
    if sink {
        let quiet = dom.wrote.is_empty() && dom.elem.is_none() && pushed.is_empty();
        return match (quiet && popped == work.pop, dom.printed) {
            (true, 0) => Some(Plumbing::DiscardSink { pop: work.pop }),
            (true, p) if p == work.pop => Some(Plumbing::PrintSink { pop: work.pop }),
            _ => None,
        };
    }
    let (&[Pv::Elem(t, c)], 0, 0) = (&pushed[..], popped, dom.printed) else {
        return None;
    };
    let ACell::Scalar(_, Pv::Next(stepped, m)) = end.globals[c as usize] else {
        return None;
    };
    let (Cell::Array(table), Cell::Scalar(_, Value::Int(start))) = (cell(t), cell(c)) else {
        return None;
    };
    if stepped != c || dom.wrote != [c] || table.dims != [table.dims[0]] || table.dims[0] < m {
        return None;
    }
    let pos = usize::try_from(*start).ok().filter(|&p| p < m)?;
    let values = (table.data[..m].iter().map(|v| v.as_f64().ok())).collect::<Option<_>>()?;
    Some(Plumbing::Periodic { values, pos })
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
    fn dead_branch_write_is_pruned_from_the_dead_store_lint() {
        // A syntactic walk sees the write under `if (false)` and calls
        // `s` written but never read; flow-sensitive analysis prunes the
        // dead branch, so there is no store to lint.
        let f = facts(
            "float->float filter F { float s; work pop 1 push 1 {
                 if (false) s = 1.0;
                 push(pop());
             } }",
            "F",
        );
        let codes: Vec<&str> = f.lints.iter().map(|l| l.code).collect();
        assert!(codes.contains(&"constant-condition"), "{codes:?}");
        assert!(!codes.contains(&"dead-store"), "{codes:?}");
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
    fn a_long_decided_loop_is_widened_not_unrolled_to_exhaustion() {
        // Ten million decided trips would burn the whole fuel budget and
        // leave conservative facts; past `MAX_UNROLL` the loop is widened
        // instead, and one that does not touch the tape costs no certificate.
        let f = facts(
            "float->float filter F { work pop 1 push 1 {
                 float s = 0;
                 for (int i = 0; i < 10000000; i++) s = s + 1;
                 push(pop() + s);
             } }",
            "F",
        );
        assert!(f.work.cert.is_some(), "{:?}", f.work.uncertified);
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
        // trip count is input-dependent and its test pops, so the phase
        // keeps no certificate, and the reason names the loop.
        assert!(f.work.cert.is_none());
        let why = f.work.uncertified.as_deref().unwrap_or("");
        assert!(
            why.starts_with("a loop at 2:") && why.ends_with("touches the tape"),
            "{why}"
        );
    }

    /// FIR's `FloatSource`, the ring-buffer source the near misses edit.
    const RING: &str = "void->float filter S { float[16] inputs; int idx;
         init { for (int i = 0; i < 16; i++) inputs[i] = i; idx = 0; }
         work push 1 { push(inputs[idx]); idx = (idx + 1) % 16; } }";

    fn plumbing(src: &str) -> Option<Plumbing> {
        let name = src.split_whitespace().nth(2).expect("a filter");
        facts(src, name).plumbing
    }

    #[test]
    fn the_ring_buffer_sources_are_periodic() {
        let sources = [
            (RING, 16),
            // Vocoder's `DataSource`.
            (
                "void->float filter V { int index; float[11] x;
                 init { x[0] = -0.70867825; x[1] = 0.9750938; x[2] = -0.009129746;
                     x[3] = 0.28532153; x[4] = -0.42127264; x[5] = -0.95795095;
                     x[6] = 0.68976873; x[7] = 0.99901736; x[8] = -0.8581795;
                     x[9] = 0.9863592; x[10] = 0.909825; }
                 work push 1 { push(x[index]); index = (index + 1) % 11; } }",
                11,
            ),
            // Oversampler's and DToA's `DataSource` (one text).
            (
                "void->float filter D { int index; float[100] data;
                 init { for (int i = 0; i < 100; i++) { float t = i;
                     data[i] = sin((2 * pi) * (t / 100))
                         + sin((2 * pi) * (1.7 * t / 100) + (pi / 3))
                         + sin((2 * pi) * (2.1 * t / 100) + (pi / 5)); }
                     index = 0; }
                 work push 1 { push(data[index]); index = (index + 1) % 100; } }",
                100,
            ),
            // A cycle shorter than its table, entered mid-way.
            (
                &RING.replace("% 16", "% 8").replace("idx = 0;", "idx = 5;"),
                8,
            ),
        ];
        for (src, m) in sources {
            let Some(Plumbing::Periodic { values, pos }) = plumbing(src) else {
                panic!("not periodic: {src}")
            };
            assert_eq!(values.len(), m, "{src}");
            assert_eq!(pos, if m == 8 { 5 } else { 0 }, "{src}");
        }
        let Some(Plumbing::Periodic { values, .. }) = plumbing(RING) else {
            unreachable!()
        };
        assert_eq!(&values[..3], &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn both_sink_forms_are_plumbing() {
        let sink = |body: &str| plumbing(&format!("float->void filter K {{ {body} }}"));
        let print = sink("work pop 1 { println(pop()); }");
        assert_eq!(print, Some(Plumbing::PrintSink { pop: 1 }));
        let print = sink("work pop 3 { println(pop()); println(pop()); println(pop()); }");
        assert_eq!(print, Some(Plumbing::PrintSink { pop: 3 }));
        let discard = sink("work pop 2 { pop(); pop(); }");
        assert_eq!(discard, Some(Plumbing::DiscardSink { pop: 2 }));
        // Near misses: no newline, out of order, arithmetic, a float
        // operation the interpreters would tally, a branch, a peek.
        for body in [
            "work pop 1 { print(pop()); }",
            "work pop 2 { pop(); println(pop()); }",
            "work pop 1 { println(pop() * 2.0); }",
            "work pop 1 { pop(); float x = 1.0 + 2.0; }",
            "work pop 1 { if (true) println(pop()); else pop(); }",
            "work peek 1 pop 1 { println(peek(0)); pop(); }",
        ] {
            assert_eq!(sink(body), None, "{body}");
        }
    }

    #[test]
    fn near_misses_of_a_ring_buffer_source_stay_interpreted() {
        let near_misses = [
            ("step 2", RING.replace("idx + 1", "idx + 2")),
            ("m larger than the table", RING.replace("% 16", "% 17")),
            (
                "a table the work phase writes",
                RING.replace("push(inputs[idx]);", "push(inputs[idx]); inputs[0] = 1;"),
            ),
            ("an int table", RING.replace("float[16]", "int[16]")),
            (
                "a counter at or past m after init",
                RING.replace("% 16", "% 8").replace("idx = 0;", "idx = 8;"),
            ),
            (
                "a second global write",
                RING.replace("int idx;", "int idx; int n;")
                    .replace("% 16;", "% 16; n = (n + 1) % 16;"),
            ),
            (
                "a print in a source",
                RING.replace("% 16;", "% 16; println(idx);"),
            ),
            (
                "an initWork phase",
                RING.replace("work push 1", "initWork push 1 { push(0); } work push 1"),
            ),
        ];
        for (what, src) in near_misses {
            assert_eq!(plumbing(&src), None, "{what}");
        }
    }
}
