//! Verified-filter dataflow framework: a flow-sensitive abstract
//! interpretation of the lowered work bodies ([`crate::lower`]).
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
//! 2. **Lints** — [`Lint`]s with spans: dead field stores, constant
//!    conditions, possibly-out-of-range peeks, possible rate mismatches.
//!    The walk is flow-sensitive, so a store that only happens in a
//!    provably-dead branch is no store. (Unused-field/-parameter lints are
//!    added at elaboration, which still sees the source names.)
//! 3. **Plumbing** — [`Plumbing`]: a sink that prints or discards exactly
//!    what it pops, or a ring-buffer source that pushes a constant table
//!    at a counter stepped mod `m`. The runtime runs such a filter as a
//!    native node, so the proof includes everything that makes the node
//!    equal to the filter: same items, no fault, no operation to tally.
//!
//! **What is here** is two domains and a driver. Statement order, scoping,
//! typed stores, indexing, branching, unrolling, fuel — and constant
//! folding, by the runtime tiers' own `bin_op`/`un_op`/`MathFn::call` —
//! are [`crate::absint::walk`]'s, the walk linear extraction runs on too:
//! a certificate cannot disagree with execution about control flow or
//! about a value. This file supplies `RateDomain` (`Num` values, interval
//! tape counters, lint and certificate accounting, saturating
//! the counters of an undecided loop that touches the tape),
//! [`analyze_filter`], which binds the entry state and checks the final
//! counters against the declared rates, and `PlumbingDomain`, walked only
//! on filters whose declared rates admit a native node. It matches no node
//! of the slot IR: which slots a phase or a loop can write is the
//! [`Effects`] the lowerer recorded.

use std::collections::HashMap;
use std::sync::Arc;

use streamlin_lang::ast::{BinOp, DataType, UnOp};
use streamlin_lang::token::Span;

use crate::absint::{walk, ACell, Domain};
use crate::ir::WorkFn;
use crate::lower::{Effects, LoweredFilter, LoweredWork, Slot};
use crate::value::{Cell, EvalError, MathFn, Value};

/// Sentinel for "no static bound" in pop/push counters.
const UNBOUNDED: i64 = i64::MAX;

/// Abstract steps (statements evaluated) per phase before the analysis
/// gives up and reports conservative facts.
const ANALYSIS_FUEL: u64 = 2_000_000;

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

impl Num {
    /// Integer range, if this value is provably an integer.
    fn int_range(self) -> Option<(i64, i64)> {
        match self {
            Num::Known(Value::Int(v)) => Some((v, v)),
            Num::Int(lo, hi) => Some((lo, hi)),
            _ => None,
        }
    }

    fn is_floatish(self) -> bool {
        matches!(self, Num::Known(Value::Float(_)) | Num::FloatAny)
    }

    fn join(a: Num, b: Num) -> Num {
        if a == b {
            return a;
        }
        match (a.int_range(), b.int_range()) {
            (Some((al, ah)), Some((bl, bh))) => Num::Int(al.min(bl), ah.max(bh)),
            _ if a.is_floatish() && b.is_floatish() => Num::FloatAny,
            _ => Num::Any,
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
fn abin(op: BinOp, a: Num, b: Num) -> Num {
    use BinOp::*;
    match op {
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
    }
}

/// Abstract unary operation.
fn aun(op: UnOp, a: Num) -> Num {
    match (op, a) {
        (UnOp::Neg, Num::Int(lo, hi)) => Num::Int(clamp128(-(hi as i128)), clamp128(-(lo as i128))),
        (UnOp::Neg, Num::FloatAny) => Num::FloatAny,
        _ => Num::Any,
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

/// The abstract tape: how many items may have been popped and pushed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Tape {
    pops: Ctr,
    pushes: Ctr,
}

// ---------------------------------------------------------------------------
// The domain
// ---------------------------------------------------------------------------

/// The `Num` values above, interval tape counters, and the lint and
/// certificate accounting of one filter.
struct RateDomain<'a> {
    /// Declared rates of the phase under analysis.
    decl: &'a WorkFn,
    /// Span of the statement in hand.
    span: Span,
    /// False if the statement in hand executes on every firing, which is
    /// what upgrades a possible violation to a provable one.
    conditional: bool,
    /// First reason certification of the phase failed, if any.
    uncert: Option<String>,
    // Global accesses, accumulated across both phases.
    global_reads: Vec<bool>,
    global_writes: Vec<Option<Span>>,
    lints: Vec<Lint>,
    errors: Vec<AnalysisError>,
}

impl RateDomain<'_> {
    fn uncertify(&mut self, reason: impl Into<String>) {
        if self.uncert.is_none() {
            self.uncert = Some(reason.into());
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

    fn check_peek(&mut self, tape: &Tape, idx: Num) {
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
}

impl Domain for RateDomain<'_> {
    type Value = Num;
    type Tape = Tape;
    /// Why the analysis gave up on the filter.
    type Stop = String;
    /// Past this a loop is widened like one whose test is undecided.
    const MAX_UNROLL: u64 = 65_536;

    fn at(&mut self, span: Span, conditional: bool) {
        (self.span, self.conditional) = (span, conditional);
    }

    fn literal(&mut self, v: Value) -> Num {
        Num::Known(v)
    }

    fn top(&mut self) -> Num {
        Num::Any
    }

    fn concrete(&mut self, v: &Num) -> Option<Value> {
        match *v {
            Num::Known(v) => Some(v),
            _ => None,
        }
    }

    fn un_op(&mut self, op: UnOp, a: Num) -> Num {
        aun(op, a)
    }

    fn bin_op(&mut self, op: BinOp, a: Num, b: Num) -> Num {
        abin(op, a, b)
    }

    fn math(&mut self, _f: MathFn, _args: &[Num]) -> Num {
        Num::Any
    }

    /// The runtime's store-time coercion into the declared scalar type.
    fn coerce(&mut self, v: Num, ty: DataType) -> Result<Num, String> {
        Ok(match (ty, v) {
            (DataType::Float, Num::Known(Value::Int(i))) => Num::Known(Value::Float(i as f64)),
            (DataType::Float, Num::Int(..)) => Num::FloatAny,
            (_, num) => num,
        })
    }

    fn join(&mut self, a: &mut Num, b: &Num) {
        *a = Num::join(*a, *b);
    }

    fn join_tapes(&mut self, a: &mut Tape, b: Tape) -> Result<(), Self::Stop> {
        a.pops = Ctr::join(a.pops, b.pops);
        a.pushes = Ctr::join(a.pushes, b.pushes);
        Ok(())
    }

    /// Some element of the array: any value of its element type.
    fn any_element(&mut self, _slot: Slot, ty: DataType, _constant: bool, _idx: &[Num]) -> Num {
        elem_num(ty)
    }

    /// A tape item: an unknown float.
    fn peek(&mut self, tape: &mut Tape, i: Num) -> Result<Num, Self::Stop> {
        self.check_peek(tape, i);
        Ok(Num::FloatAny)
    }

    fn pop(&mut self, tape: &mut Tape) -> Result<Num, Self::Stop> {
        self.check_pop(tape);
        tape.pops.bump();
        Ok(Num::FloatAny)
    }

    fn push(&mut self, tape: &mut Tape, _v: Num) -> Result<(), Self::Stop> {
        tape.pushes.bump();
        Ok(())
    }

    /// The statement fails the same way at run time under both tiers, on
    /// the checked tape path conservative facts leave it on.
    fn fault(&mut self, e: EvalError) -> String {
        e.message
    }

    /// Widening: the engine clobbers everything the loop can write; here
    /// the tape counters saturate if it touches the tape.
    fn undecided_loop(&mut self, tape: &mut Tape, fx: &Effects) -> Result<(), Self::Stop> {
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
        Ok(())
    }

    fn give_up(&mut self, why: &'static str) -> String {
        why.to_string()
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

fn elem_num(ty: DataType) -> Num {
    match ty {
        DataType::Int => Num::Int(i64::MIN, i64::MAX),
        DataType::Bool => Num::Any,
        _ => Num::FloatAny,
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

impl<'a> RateDomain<'a> {
    /// Walks one phase and checks what it popped and pushed against
    /// `decl`; `span` anchors the rate diagnostics to the phase header.
    fn phase(
        &mut self,
        globals: Vec<ACell<'_, Num>>,
        frame_slots: usize,
        code: &LoweredWork,
        decl: &'a WorkFn,
        span: Span,
    ) -> Result<PhaseFacts, String> {
        (self.decl, self.uncert) = (decl, None);
        let entry = Tape::default();
        let end = walk(self, ANALYSIS_FUEL, globals, frame_slots, entry, &code.body)?;
        let Tape { pops, pushes } = end.tape;
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
        Ok(PhaseFacts {
            cert: self.uncert.is_none().then_some(RateCert {
                peek: decl.peek,
                pop: decl.pop,
                push: decl.push,
            }),
            uncertified: self.uncert.take(),
            pop_range: (pops.lo, pops.hi),
            push_range: (pushes.lo, pushes.hi),
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
    // A global is mutable iff any phase can write it syntactically — its
    // entry value is then any value of its type; everything else keeps its
    // concrete elaboration-time value, which is what makes loop trip
    // counts and peek offsets decidable.
    let globals: Vec<ACell<'_, Num>> = (lowered.globals.iter().zip(0u32..))
        .map(|(name, g)| match lowered.may_write(Slot::Global(g)) {
            false => ACell::Const(&state[name]),
            true => ACell::from_cell(&state[name], |ty, _| elem_num(ty)),
        })
        .collect();
    let frame = lowered.frame_slots();
    let mut dom = RateDomain {
        decl: work,
        span: work_span,
        conditional: false,
        uncert: None,
        global_reads: vec![false; n],
        global_writes: vec![None; n],
        lints: Vec::new(),
        errors: Vec::new(),
    };
    let phases = dom
        .phase(globals.clone(), frame, &lowered.work, work, work_span)
        .and_then(|w| {
            let init = match init_work.zip(lowered.init_work.as_ref()) {
                Some((decl, code)) => Some(dom.phase(globals, frame, code, decl, init_span)?),
                None => None,
            };
            Ok((w, init))
        });
    let (work_facts, init_facts) = match phases {
        Ok(facts) => facts,
        // The analysis gave up: conservative facts, no diagnostics
        // (partial walks could misreport).
        Err(why) => {
            let gave_up = PhaseFacts {
                cert: None,
                uncertified: Some(why),
                pop_range: (0, UNBOUNDED),
                push_range: (0, UNBOUNDED),
            };
            return FilterFacts {
                init_work: init_work.map(|_| gave_up.clone()),
                work: gave_up,
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
    }
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
    let (fuel, code, tape) = (work.pop as u64 + 2, &lowered.work, Items::default());
    let end = walk(&mut dom, fuel, globals, code.frame_slots, tape, &code.body).ok()?;
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
