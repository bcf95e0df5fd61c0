//! The one abstract walker over the slot IR: work-body semantics, written
//! once.
//!
//! The paper's extraction (§3.2) is symbolic execution of `work`, and the
//! rate analysis generalises the move; on these programs an analysis
//! *is* evaluation in another value domain. So the control skeleton of a
//! work body lives here, once, and an analysis is a [`Domain`]:
//! [`crate::analyze`]'s two are the instances — one value domain whose
//! cells hold a constant, an interval, a linear form or ⊤, read for rates,
//! lints and the linear verdict in one walk per phase; and which filters
//! are native plumbing. **A new analysis is a `Domain`, never a new match
//! on [`RStmt`].** Execution is a domain too: at the identity
//! abstraction the abstract evaluator *is* the evaluator, so the dialect's
//! reference semantics is this walk under the concrete domain ([`exec`],
//! [`eval`]) — `--tier treewalk`, the phases the typer refuses and
//! elaboration's constants run on it. The bytecode tier is the independent
//! implementation held to it (`tests/interp_differential.rs`, the fuel and
//! fault sweeps of `tests/typed_bytecode.rs`, `tests/graph_fuzz.rs`), so a
//! drift of the skeleton fails a test instead of shipping a certificate.
//!
//! [`walk`] owns everything that is not a value. Each rule below was once
//! written per walker; the PR named is the last that had to fix a copy.
//!
//! * **Order.** Statements in sequence; right-hand side before target;
//!   index expressions and operands left to right.
//! * **`Decl`** evaluates the dimensions, zero-fills the slot at its
//!   declared type, *then* evaluates and stores the initialiser — `int b =
//!   b + 5` reads 0, never what a sibling scope left in the shared frame
//!   slot (interpreters PR 3, extraction PR 15, `analyze` PR 18).
//! * **`op=` / `++` / `--`** are one read-modify-write through a single
//!   index evaluation: the old value is taken out ([`Domain::take`]), the new one
//!   moved in, so `a[i++] += v` bumps `i` once and `sum += …` accumulates
//!   in place (interpreters PR 3, extraction PR 12, `analyze` PR 18).
//! * **Typed cells**, globals and frame alike: every store goes through
//!   [`Domain::coerce`] to the declared type, so an `int` stored into a
//!   `float` divides as a float afterwards (extraction PR 15, `analyze`
//!   PR 18). A global no walked phase writes is [`ACell::Const`]: read
//!   straight from its elaboration-time cell, never copied. A store the
//!   declared type refuses is the concrete domain's fault.
//! * **Arrays** are element-wise, row-major and bounds-checked through
//!   [`flat_offset`] (one offset function since PR 15), a scalar as the
//!   rank-0 case: element 0, with no index to buffer and no offset to
//!   compute. Each index is checked as soon as it is evaluated, before
//!   the next one runs. An access at an undecided index is weak: a read is
//!   [`Domain::any_element`], a store joins the value into every element.
//! * **Constants.** An operation whose operands are all
//!   [`Domain::concrete`] is folded here, by the evaluators' own
//!   `un_op`/`bin_op`/`MathFn::call`, after [`Domain::flop`] is told of
//!   it when it is a floating-point operation; one that faults (`1 / 0`)
//!   is a [`Domain::fault`], as at run time.
//! * **Branches.** A decided `if`, `&&` or `||` takes one side — `false &&
//!   x++` does not run `x++` — and a decided condition that is not a
//!   boolean is a fault; an undecided one runs both on cloned states
//!   and joins (extraction PR 15). The join is slot-wise; a frame slot
//!   holding a different, already out-of-scope local on each path is dead
//!   and joins to ⊤, never to an error (extraction PR 15).
//! * **Loops** unroll while the test is decided, for at most
//!   [`Domain::MAX_UNROLL`] trips: after the last, only a decided exit is
//!   taken. An undecided loop, or one that goes on past the bound, is the
//!   domain's call ([`Domain::undecided_loop`]): stop with a reason, or widen its tape
//!   — the engine then sets every slot the loop can write (its
//!   [`Effects`], recorded at lowering) to ⊤ and walks test, body and step
//!   once more on a scratch copy, so the domain still sees every access
//!   the loop can make.
//! * **`return`** joins the state into the walk's exit state; a walk ends
//!   in the join of falling off the end and every `return`.
//! * **Fuel** is spent per statement and per loop test, as the bytecode
//!   tier spends it; **position** — the span of the statement in hand, and
//!   whether undecided control surrounds it — is [`Domain::at`].

use streamlin_lang::ast::{BinOp, DataType, UnOp};
use streamlin_lang::token::Span;

use crate::exec::{Flow, Host, IndexBuf};
use crate::lower::{Effects, RExpr, RLValue, RStmt, Slot, SlotStore};
use crate::value::{bin_op, flat_offset, un_op, ArrayVal, Cell, EvalError, MathFn, Value};

/// What differs between analyses, and between an analysis and execution:
/// the values, the tape, and what to do when the walk cannot decide.
/// Everything else is [`walk`].
pub trait Domain {
    /// An abstract scalar.
    type Value: Clone;
    /// The abstract tape (cloned and joined with the state around it).
    type Tape: Clone;
    /// Why a walk stopped early.
    type Stop;
    /// Trips a decided loop is unrolled before it counts as undecided.
    const MAX_UNROLL: u64 = u64::MAX;
    /// What [`Domain::give_up`] is told when the fuel runs out.
    const OUT_OF_FUEL: &'static str = "analysis fuel exhausted";

    /// The walk is now at the statement at `span`; `conditional` if
    /// undecided control flow surrounds it.
    fn at(&mut self, span: Span, conditional: bool);

    /// The abstraction of a concrete value.
    fn literal(&mut self, v: Value) -> Self::Value;
    /// ⊤: what a dead frame slot or a widened variable holds.
    fn top(&mut self) -> Self::Value;
    /// The concrete value, if `v` is the same one on every execution: what
    /// decides a branch, a loop test, an index, an array size — and an
    /// operation, which the engine folds with the evaluators' own
    /// `un_op`/`bin_op`/`MathFn::call` when every operand is concrete. The
    /// three transfer functions below see the other cases.
    fn concrete(&mut self, v: &Self::Value) -> Option<Value>;
    /// Transfer function of a unary operator.
    fn un_op(&mut self, op: UnOp, a: Self::Value) -> Self::Value;
    /// Transfer function of a binary operator (for `&&`/`||`, after the
    /// engine applied the short-circuit rule).
    fn bin_op(&mut self, op: BinOp, a: Self::Value, b: Self::Value) -> Self::Value;
    /// Transfer function of an intrinsic.
    fn math(&mut self, f: MathFn, args: &[Self::Value]) -> Self::Value;
    /// What a store of `v` leaves in a variable declared `ty`, or why the
    /// store fails.
    fn coerce(&mut self, v: Self::Value, ty: DataType) -> Result<Self::Value, Self::Stop>;
    /// A floating-point operation is about to be folded: a binary
    /// operator (`op=` and `++` included) or a negation with a float
    /// operand, or an intrinsic with a float result — the paper's FLOP
    /// metric, in which integer arithmetic is free.
    fn flop(&mut self, _op: Flop) {}
    /// Takes the current value out of `cell` for an `op=` or `++`. The
    /// default moves it, leaving ⊤ until the result is stored, so the
    /// operation can accumulate in place; a fault then ends the walk and
    /// its state with it. A domain whose state outlives a fault copies it,
    /// so the cell keeps its value when the operation fails.
    fn take(&mut self, cell: &mut Self::Value) -> Self::Value {
        let top = self.top();
        std::mem::replace(cell, top)
    }
    /// `a ← a ⊔ b`.
    fn join(&mut self, a: &mut Self::Value, b: &Self::Value);
    /// `a ← a ⊔ b` on tapes.
    fn join_tapes(&mut self, a: &mut Self::Tape, b: Self::Tape) -> Result<(), Self::Stop>;
    /// A read at the undecided index `idx` of the `ty` array in `slot`
    /// (`constant`: a table no walked phase writes).
    fn any_element(
        &mut self,
        _slot: Slot,
        _ty: DataType,
        _constant: bool,
        _idx: &[Self::Value],
    ) -> Self::Value {
        self.top()
    }

    /// `peek(i)`.
    fn peek(&mut self, tape: &mut Self::Tape, i: Self::Value) -> Result<Self::Value, Self::Stop>;
    /// `pop()`.
    fn pop(&mut self, tape: &mut Self::Tape) -> Result<Self::Value, Self::Stop>;
    /// `push(v)`.
    fn push(&mut self, tape: &mut Self::Tape, v: Self::Value) -> Result<(), Self::Stop>;
    /// `print(v)` / `println(v)`.
    fn print(&mut self, _v: Self::Value, _newline: bool) -> Result<(), Self::Stop> {
        Ok(())
    }

    /// The statement in hand fails at run time whenever it is reached (an
    /// index out of bounds, a scalar indexed).
    fn fault(&mut self, e: EvalError) -> Self::Stop;
    /// The walk cannot go on: out of fuel, an undecided array size, an
    /// undecided loop test.
    fn give_up(&mut self, why: &'static str) -> Self::Stop;
    /// The test of a loop that can do `fx` is undecided, or (`past_unroll`)
    /// still true after [`Domain::MAX_UNROLL`] trips: stop, or widen `tape`
    /// (the engine widens the slots in `fx.writes`).
    fn undecided_loop(
        &mut self,
        _tape: &mut Self::Tape,
        _fx: &Effects,
        _past_unroll: bool,
    ) -> Result<(), Self::Stop> {
        Err(self.give_up("loop bound depends on the input or on ⊤ state"))
    }

    /// An `if` condition was decided.
    fn constant_condition(&mut self, _taken: bool) {}
    /// `slot` (or an element of it) was read.
    fn read(&mut self, _slot: Slot) {}
    /// A value was stored to `slot`, at `idx` (empty for a scalar).
    fn wrote(&mut self, _slot: Slot, _idx: &[Self::Value]) {}
}

/// The families the paper's FLOP metric counts (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flop {
    /// An addition or subtraction.
    Add,
    /// A multiplication.
    Mul,
    /// A division.
    Div,
    /// A remainder, comparison, negation or intrinsic.
    Other,
}

impl Flop {
    /// The family of a binary operator on floats; `None` for the logical
    /// and bitwise ones, which no float operand survives.
    fn of(op: BinOp) -> Option<Flop> {
        match op {
            BinOp::Add | BinOp::Sub => Some(Flop::Add),
            BinOp::Mul => Some(Flop::Mul),
            BinOp::Div => Some(Flop::Div),
            BinOp::Rem => Some(Flop::Other),
            op if op.is_comparison() => Some(Flop::Other),
            _ => None,
        }
    }
}

/// A storage cell over abstract values, typed like the [`Cell`] it stands
/// for.
#[derive(Debug, Clone, PartialEq)]
pub enum ACell<'c, V> {
    /// A global no walked phase writes, read in place.
    Const(&'c Cell),
    /// A scalar variable of the declared type.
    Scalar(DataType, V),
    /// An array variable: element type, dimensions, row-major elements.
    Array(DataType, Vec<usize>, Vec<V>),
}

impl<V> ACell<'_, V> {
    /// A variable shaped and typed like `cell`, each value mapped.
    pub fn from_cell(cell: &Cell, mut f: impl FnMut(DataType, Value) -> V) -> Self {
        match cell {
            Cell::Scalar(ty, v) => ACell::Scalar(*ty, f(*ty, *v)),
            Cell::Array(a) => {
                let data = a.data.iter().map(|v| f(a.elem, *v)).collect();
                ACell::Array(a.elem, a.dims.clone(), data)
            }
        }
    }

    /// The cell the way the engine sees every cell: element type,
    /// dimensions (none for a scalar — the rank-0 case) and elements, the
    /// variable's or (`Err`) the constant table's.
    #[allow(clippy::type_complexity)]
    fn view(&self) -> (DataType, &[usize], Result<&[V], &[Value]>) {
        match self {
            ACell::Const(Cell::Scalar(ty, v)) => (*ty, &[], Err(std::slice::from_ref(v))),
            ACell::Const(Cell::Array(a)) => (a.elem, &a.dims, Err(&a.data)),
            ACell::Scalar(ty, v) => (*ty, &[], Ok(std::slice::from_ref(v))),
            ACell::Array(ty, dims, data) => (*ty, dims, Ok(data)),
        }
    }

    /// [`ACell::view`] of a variable, to store through.
    fn view_mut(&mut self) -> (DataType, &[usize], &mut [V]) {
        match self {
            ACell::Const(_) => unreachable!("a written slot is never bound `Const`"),
            ACell::Scalar(ty, v) => (*ty, &[], std::slice::from_mut(v)),
            ACell::Array(ty, dims, data) => (*ty, dims, data),
        }
    }
}

/// One abstract program state: a cell per storage slot plus the tape.
#[derive(Debug, Clone)]
pub struct State<'c, V, T> {
    /// Persistent cells, in `LoweredFilter::globals` order.
    pub globals: Vec<ACell<'c, V>>,
    /// Frame cells.
    pub frame: Vec<ACell<'c, V>>,
    /// The domain's tape.
    pub tape: T,
}

impl<'c, V, T> State<'c, V, T> {
    fn cell_mut(&mut self, slot: Slot) -> &mut ACell<'c, V> {
        match slot {
            Slot::Global(i) => &mut self.globals[i as usize],
            Slot::Frame(i) => &mut self.frame[i as usize],
        }
    }
}

type StateOf<'c, D> = State<'c, <D as Domain>::Value, <D as Domain>::Tape>;
/// `false` once every path has returned (the state is then dead).
type Live<D> = Result<bool, <D as Domain>::Stop>;

/// Walks `body` from the entry `globals` and `tape` over a frame of
/// `frame_slots` dead cells (a slot is never read before its `Decl`), and
/// returns the state it ends in — the join of falling off the end and of
/// every `return` — or why the domain stopped the walk (its last
/// [`Domain::at`] says where). `fuel` is left with what the walk did not
/// spend, whichever way it ended.
pub fn walk<'c, D: Domain>(
    dom: &mut D,
    fuel: &mut u64,
    globals: Vec<ACell<'c, D::Value>>,
    frame_slots: usize,
    tape: D::Tape,
    body: &[RStmt],
) -> Result<StateOf<'c, D>, D::Stop> {
    let dead = ACell::Scalar(DataType::Int, dom.top());
    let mut st = State {
        globals,
        frame: vec![dead; frame_slots],
        tape,
    };
    let mut walker = Walker::new(dom, *fuel);
    let ended = walker.body(&mut st, body);
    *fuel = walker.fuel;
    ended?;
    Ok(st)
}

struct Walker<'d, 'c, D: Domain> {
    dom: &'d mut D,
    fuel: u64,
    /// Span of the statement in hand.
    span: Span,
    /// Depth of undecided control flow around the current point.
    undecided: u32,
    /// Joined state at the `return`s seen so far.
    exit: Option<StateOf<'c, D>>,
    /// Evaluated indices and intrinsic arguments awaiting their use, as a
    /// stack: an access's own start at the length it found.
    operands: Vec<D::Value>,
}

impl<'d, 'c, D: Domain> Walker<'d, 'c, D> {
    fn new(dom: &'d mut D, fuel: u64) -> Self {
        Walker {
            dom,
            fuel,
            span: Span::default(),
            undecided: 0,
            exit: None,
            operands: Vec::new(),
        }
    }

    /// Walks a whole body in `st`, leaving there the state it ends in;
    /// `false` if it ended in a `return` on every path.
    fn body(&mut self, st: &mut StateOf<'c, D>, body: &[RStmt]) -> Live<D> {
        let falls_off = self.block(st, body)?;
        match self.exit.take() {
            Some(exit) if falls_off => self.join(st, exit)?,
            Some(exit) => *st = exit,
            None => {}
        }
        Ok(falls_off)
    }

    fn spend(&mut self) -> Result<(), D::Stop> {
        if self.fuel == 0 {
            return Err(self.dom.give_up(D::OUT_OF_FUEL));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn enter(&mut self, span: Span) {
        self.span = span;
        self.dom.at(span, self.undecided > 0);
    }

    /// Runs `f` one level deeper under undecided control.
    fn conditionally<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let span = self.span;
        self.undecided += 1;
        self.enter(span);
        let r = f(self);
        self.undecided -= 1;
        self.enter(span);
        r
    }

    /// `a ← a ⊔ b`, slot-wise.
    fn join(&mut self, a: &mut StateOf<'c, D>, b: StateOf<'c, D>) -> Result<(), D::Stop> {
        self.dom.join_tapes(&mut a.tape, b.tape)?;
        let cells = a.globals.iter_mut().chain(&mut a.frame);
        for (x, y) in cells.zip(b.globals.into_iter().chain(b.frame)) {
            if matches!(x, ACell::Const(_)) {
                continue;
            }
            let ((tx, dx, x), (ty, dy, Ok(y))) = (x.view_mut(), y.view()) else {
                unreachable!("a slot is `Const` on every path or on none")
            };
            if (tx, dx) == (ty, dy) {
                x.iter_mut().zip(y).for_each(|(p, q)| self.dom.join(p, q));
            } else {
                // Two different locals shared the slot: whichever it was,
                // it is out of scope on the joined path.
                x.fill_with(|| self.dom.top());
            }
        }
        Ok(())
    }

    fn block(&mut self, st: &mut StateOf<'c, D>, stmts: &[RStmt]) -> Live<D> {
        for s in stmts {
            if !self.stmt(st, s)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn stmt(&mut self, st: &mut StateOf<'c, D>, s: &RStmt) -> Live<D> {
        self.spend()?;
        self.enter(s.span());
        match s {
            RStmt::Decl {
                slot,
                base,
                dims,
                init,
                ..
            } => {
                let (start, sizes) = self.indices(st, dims)?;
                self.operands.truncate(start);
                if let At::Any = sizes {
                    let why = "array index or size depends on the input";
                    return Err(self.dom.give_up(why));
                }
                let zero = self.dom.literal(Value::zero_of(*base));
                st.frame[*slot as usize] = match sizes {
                    At::Index(sizes) => {
                        let sizes = sizes.as_slice();
                        let zeros = vec![zero; sizes.iter().product()];
                        ACell::Array(*base, sizes.to_vec(), zeros)
                    }
                    _ => ACell::Scalar(*base, zero),
                };
                if let Some(e) = init {
                    let v = self.eval(st, e)?;
                    self.update(st, Slot::Frame(*slot), &[], false, |_, _| Ok(v))?;
                }
            }
            RStmt::Assign {
                target, op, value, ..
            } => {
                let rhs = self.eval(st, value)?;
                let (slot, idx) = target_parts(target);
                match op {
                    None => self.update(st, slot, idx, false, |_, _| Ok(rhs))?,
                    Some(op) => {
                        self.update(st, slot, idx, true, |d, cur| binary(d, *op, cur, rhs))?
                    }
                }
            }
            RStmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let c = self.eval(st, cond)?;
                let else_blk = else_blk.as_deref().unwrap_or(&[]);
                let Some(taken) = self.truth(&c)? else {
                    let mut other = st.clone();
                    let (t, e) = self.conditionally(|w| {
                        Ok((w.block(st, then_blk)?, w.block(&mut other, else_blk)?))
                    })?;
                    self.enter(*span);
                    match (t, e) {
                        (true, true) => self.join(st, other)?,
                        (false, true) => *st = other,
                        _ => {}
                    }
                    return Ok(t || e);
                };
                self.dom.constant_condition(taken);
                return self.block(st, if taken { then_blk } else { else_blk });
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
                fx,
                span,
            } => {
                if let Some(i) = init {
                    if !self.stmt(st, i)? {
                        return Ok(false);
                    }
                }
                let step = step.as_deref();
                for trips in 0.. {
                    self.spend()?;
                    self.enter(*span);
                    let go = match cond {
                        None => Some(true),
                        Some(c) => {
                            let v = self.eval(st, c)?;
                            self.truth(&v)?
                        }
                    };
                    // After the last trip the domain unrolls, only a decided
                    // exit is taken: a loop that goes on is widened.
                    let past_unroll = trips == D::MAX_UNROLL && go == Some(true);
                    match go {
                        Some(false) => break,
                        Some(true) if !past_unroll => {
                            if !self.trip(st, body, step)? {
                                return Ok(false);
                            }
                        }
                        _ => {
                            self.dom.undecided_loop(&mut st.tape, fx, past_unroll)?;
                            for &slot in &fx.writes {
                                st.cell_mut(slot).view_mut().2.fill(self.dom.top());
                            }
                            // The accounting pass; its state is discarded
                            // (the widening above covers every write).
                            let mut scratch = st.clone();
                            self.conditionally(|w| {
                                if let Some(c) = cond {
                                    w.eval(&mut scratch, c)?;
                                }
                                w.trip(&mut scratch, body, step)
                            })?;
                            break;
                        }
                    }
                }
            }
            RStmt::Expr(e, _) => {
                self.eval(st, e)?;
            }
            RStmt::Return => {
                // Under decided control nothing runs after this, so the
                // state in hand is where the walk ends: no copy, no join.
                if self.undecided > 0 || self.exit.is_some() {
                    self.exit = Some(match self.exit.take() {
                        Some(mut exit) => {
                            self.join(&mut exit, st.clone())?;
                            exit
                        }
                        None => st.clone(),
                    });
                }
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One trip of a loop: the body, then the step.
    fn trip(&mut self, st: &mut StateOf<'c, D>, body: &[RStmt], step: Option<&RStmt>) -> Live<D> {
        Ok(self.block(st, body)? && step.map_or(Ok(true), |s| self.stmt(st, s))?)
    }

    /// `Some` if `v` is the same boolean on every execution; a fault if it
    /// is the same value and not a boolean.
    fn truth(&mut self, v: &D::Value) -> Result<Option<bool>, D::Stop> {
        match self.dom.concrete(v) {
            Some(c) => c.as_bool().map(Some).map_err(|e| self.dom.fault(e)),
            None => Ok(None),
        }
    }

    /// `Some` if `v` is the same index or size on every execution.
    fn index(&mut self, v: &D::Value) -> Result<Option<usize>, EvalError> {
        self.dom.concrete(v).map(|c| c.as_index()).transpose()
    }

    /// Evaluates index (or size) expressions left to right onto
    /// [`Walker::operands`], each checked as soon as it is evaluated —
    /// `m[k][k++]` with `k < 0` fails before the `++`. Returns where they
    /// start, and where they land as far as they decide it.
    #[inline(always)]
    fn indices(
        &mut self,
        st: &mut StateOf<'c, D>,
        exprs: &[RExpr],
    ) -> Result<(usize, At), D::Stop> {
        let base = self.operands.len();
        if exprs.is_empty() {
            return Ok((base, At::Scalar));
        }
        let mut at = At::Index(IndexBuf::default());
        for e in exprs {
            let v = self.eval(st, e)?;
            match (self.index(&v), &mut at) {
                (Ok(Some(i)), At::Index(buf)) => buf.push(i),
                (Ok(_), _) => at = At::Any,
                (Err(e), _) => return Err(self.dom.fault(e)),
            }
            self.operands.push(v);
        }
        Ok((base, at))
    }

    /// Reads a scalar (no index expressions) or an array element.
    fn read(
        &mut self,
        st: &mut StateOf<'c, D>,
        slot: Slot,
        idx_exprs: &[RExpr],
    ) -> Result<D::Value, D::Stop> {
        let (base, at) = self.indices(st, idx_exprs)?;
        let idx = &self.operands[base..];
        let (ty, dims, elems) = st.cell_mut(slot).view();
        self.dom.read(slot);
        let v = match (locate(dims, at), elems) {
            (Ok(Some(o)), Ok(data)) => data[o].clone(),
            (Ok(Some(o)), Err(table)) => self.dom.literal(table[o]),
            (Ok(None), _) => self.dom.any_element(slot, ty, elems.is_err(), idx),
            (Err(e), _) => return Err(self.dom.fault(e)),
        };
        self.operands.truncate(base);
        Ok(v)
    }

    /// The one store. Replaces the value of a scalar (no index
    /// expressions) or an array element with `f(current value)`, coerced
    /// to the declared type. The index expressions are evaluated once; the
    /// current value is taken out of its cell ([`Domain::take`]) and the
    /// result moved back, so `f` can accumulate into it in place. `reads`
    /// says whether `f` looks at the current value (`op=`, `++`) or
    /// replaces it (`=`, which leaves the cell alone until the store).
    fn update(
        &mut self,
        st: &mut StateOf<'c, D>,
        slot: Slot,
        idx_exprs: &[RExpr],
        reads: bool,
        f: impl FnOnce(&mut D, D::Value) -> Result<D::Value, D::Stop>,
    ) -> Result<(), D::Stop> {
        let (base, at) = self.indices(st, idx_exprs)?;
        let idx = &self.operands[base..];
        let (ty, dims, data) = st.cell_mut(slot).view_mut();
        if reads {
            self.dom.read(slot);
        } else if idx.is_empty() && !dims.is_empty() {
            let e = EvalError::new("cannot assign a scalar to an array");
            return Err(self.dom.fault(e));
        }
        let at = locate(dims, at).map_err(|e| self.dom.fault(e))?;
        let old = match at {
            Some(o) if reads => self.dom.take(&mut data[o]),
            None if reads => self.dom.any_element(slot, ty, false, idx),
            _ => self.dom.top(),
        };
        let new = f(self.dom, old)?;
        let new = self.dom.coerce(new, ty)?;
        self.dom.wrote(slot, idx);
        match at {
            Some(o) => data[o] = new,
            // A store at an unknown position may have hit any element.
            None => data.iter_mut().for_each(|e| self.dom.join(e, &new)),
        }
        self.operands.truncate(base);
        Ok(())
    }

    /// `a && b` / `a || b`, under the short-circuit rule (kept out of
    /// [`Walker::eval`]: its cloned state would be in every expression's
    /// frame).
    #[inline(never)]
    fn logical(
        &mut self,
        st: &mut StateOf<'c, D>,
        op: BinOp,
        a: &RExpr,
        b: &RExpr,
    ) -> Result<D::Value, D::Stop> {
        let x = self.eval(st, a)?;
        let y = match self.truth(&x)? {
            // `false && _`, `true || _`: the right operand does not run.
            Some(l) if l == (op == BinOp::Or) => return Ok(x),
            Some(_) => self.eval(st, b)?,
            None => {
                let mut ran = st.clone();
                let y = self.conditionally(|w| w.eval(&mut ran, b))?;
                self.join(st, ran)?;
                y
            }
        };
        binary(self.dom, op, x, y)
    }

    fn eval(&mut self, st: &mut StateOf<'c, D>, e: &RExpr) -> Result<D::Value, D::Stop> {
        match e {
            RExpr::Int(v) => Ok(self.dom.literal(Value::Int(*v))),
            RExpr::Float(v) => Ok(self.dom.literal(Value::Float(*v))),
            RExpr::Bool(v) => Ok(self.dom.literal(Value::Bool(*v))),
            RExpr::Var(slot) => match &*st.cell_mut(*slot) {
                // The common cases, off the general path: a variable, and
                // a constant read in place (a loop bound such as `T`).
                ACell::Scalar(_, v) => {
                    self.dom.read(*slot);
                    Ok(v.clone())
                }
                ACell::Const(Cell::Scalar(_, v)) => {
                    let v = *v;
                    self.dom.read(*slot);
                    Ok(self.dom.literal(v))
                }
                _ => self.read(st, *slot, &[]),
            },
            RExpr::Index(slot, idx) => self.read(st, *slot, idx),
            RExpr::Unary(op, a) => {
                let v = self.eval(st, a)?;
                match self.dom.concrete(&v) {
                    Some(c) => {
                        if *op == UnOp::Neg && c.is_float() {
                            self.dom.flop(Flop::Other);
                        }
                        fold(self.dom, un_op(*op, c))
                    }
                    None => Ok(self.dom.un_op(*op, v)),
                }
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => self.logical(st, *op, a, b),
            RExpr::Binary(op, a, b) => {
                let x = self.eval(st, a)?;
                let y = self.eval(st, b)?;
                binary(self.dom, *op, x, y)
            }
            RExpr::Peek(i) => {
                let i = self.eval(st, i)?;
                self.dom.peek(&mut st.tape, i)
            }
            RExpr::Pop => self.dom.pop(&mut st.tape),
            RExpr::Push(v) => {
                let v = self.eval(st, v)?;
                self.dom.push(&mut st.tape, v)?;
                Ok(self.dom.literal(Value::Int(0)))
            }
            RExpr::Math(f, args) => {
                let base = self.operands.len();
                for a in args {
                    let v = self.eval(st, a)?;
                    self.operands.push(v);
                }
                let vals = &self.operands[base..];
                // Arity was checked at lowering and is never above 2.
                let mut c = [Value::Int(0); 2];
                let decided = (vals.iter().zip(&mut c))
                    .all(|(v, c)| self.dom.concrete(v).map(|v| *c = v).is_some());
                let r = match decided {
                    true => {
                        let r = f.call(&c[..vals.len()]);
                        if matches!(r, Ok(v) if v.is_float()) {
                            self.dom.flop(Flop::Other);
                        }
                        fold(self.dom, r)
                    }
                    false => Ok(self.dom.math(*f, vals)),
                };
                self.operands.truncate(base);
                r
            }
            RExpr::Print { newline, arg } => {
                let v = self.eval(st, arg)?;
                self.dom.print(v, *newline)?;
                Ok(self.dom.literal(Value::Int(0)))
            }
            RExpr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let (slot, idx) = target_parts(target);
                let mut old = self.dom.top();
                self.update(st, slot, idx, true, |d, cur| {
                    old = cur.clone();
                    let one = d.literal(Value::Int(1));
                    binary(d, op, cur, one)
                })?;
                Ok(old)
            }
        }
    }
}

/// Where an access's index expressions land, as far as they decide it.
enum At {
    /// No index expressions: a scalar, the rank-0 case.
    Scalar,
    /// Every index decided: the positions.
    Index(IndexBuf),
    /// Some index undecided: any element.
    Any,
}

/// The element an access at `at` lands on in a cell of `dims` (`None`:
/// any), with the evaluators' checks and wording. A scalar is element 0
/// of no dimensions, with no offset to compute.
#[inline(always)]
fn locate(dims: &[usize], at: At) -> Result<Option<usize>, EvalError> {
    match at {
        At::Scalar if dims.is_empty() => Ok(Some(0)),
        At::Scalar => Err(EvalError::new(
            "variable is an array; index it to read an element",
        )),
        _ if dims.is_empty() => Err(EvalError::new("variable is a scalar, not an array")),
        At::Index(at) => flat_offset(dims, at.as_slice()).map(Some),
        At::Any => Ok(None),
    }
}

/// The abstraction of a folded constant, or the fault folding it raised.
fn fold<D: Domain>(dom: &mut D, r: Result<Value, EvalError>) -> Result<D::Value, D::Stop> {
    match r {
        Ok(v) => Ok(dom.literal(v)),
        Err(e) => Err(dom.fault(e)),
    }
}

/// `a op b`: folded when both are concrete, the domain's otherwise.
fn binary<D: Domain>(
    dom: &mut D,
    op: BinOp,
    a: D::Value,
    b: D::Value,
) -> Result<D::Value, D::Stop> {
    match (dom.concrete(&a), dom.concrete(&b)) {
        (Some(x), Some(y)) => {
            if x.is_float() || y.is_float() {
                Flop::of(op).into_iter().for_each(|f| dom.flop(f));
            }
            fold(dom, bin_op(op, x, y))
        }
        _ => Ok(dom.bin_op(op, a, b)),
    }
}

/// A target's slot and index expressions (none for a scalar).
fn target_parts(lv: &RLValue) -> (Slot, &[RExpr]) {
    match lv {
        RLValue::Var(s) => (*s, &[]),
        RLValue::Index(s, idx) => (*s, idx),
    }
}

// ---- the concrete domain: the reference evaluator ---------------------------

/// The identity abstraction: a value is itself, so the walk decides every
/// branch and folds every operation, and what is left is execution. The
/// host is the tape and the FLOP tally.
struct Concrete<'h, H> {
    host: &'h mut H,
}

impl<H: Host> Domain for Concrete<'_, H> {
    type Value = Value;
    /// The host is the tape; a concrete run never clones or joins one.
    type Tape = ();
    type Stop = EvalError;
    const OUT_OF_FUEL: &'static str = "execution fuel exhausted (possible infinite loop)";

    fn at(&mut self, _span: Span, _conditional: bool) {}
    fn literal(&mut self, v: Value) -> Value {
        v
    }
    /// Only ever a placeholder: the old value a plain `=` never looks at.
    fn top(&mut self) -> Value {
        Value::Int(0)
    }
    fn concrete(&mut self, v: &Value) -> Option<Value> {
        Some(*v)
    }
    fn un_op(&mut self, _: UnOp, _: Value) -> Value {
        unreachable!("every operand is concrete")
    }
    fn bin_op(&mut self, _: BinOp, _: Value, _: Value) -> Value {
        unreachable!("every operand is concrete")
    }
    fn math(&mut self, _: MathFn, _: &[Value]) -> Value {
        unreachable!("every operand is concrete")
    }
    fn coerce(&mut self, v: Value, ty: DataType) -> Result<Value, EvalError> {
        v.coerce_to(ty)
    }
    fn flop(&mut self, op: Flop) {
        match op {
            Flop::Add => self.host.count_add(),
            Flop::Mul => self.host.count_mul(),
            Flop::Div => self.host.count_div(),
            Flop::Other => self.host.count_other(),
        }
    }
    /// A copy: the store outlives a fault, and keeps the old value.
    fn take(&mut self, cell: &mut Value) -> Value {
        *cell
    }
    fn join(&mut self, _: &mut Value, _: &Value) {
        unreachable!("every branch is decided")
    }
    fn join_tapes(&mut self, _: &mut (), _: ()) -> Result<(), EvalError> {
        unreachable!("every branch is decided")
    }
    fn peek(&mut self, _: &mut (), i: Value) -> Result<Value, EvalError> {
        Ok(Value::Float(self.host.peek(i.as_index()?)?))
    }
    fn pop(&mut self, _: &mut ()) -> Result<Value, EvalError> {
        Ok(Value::Float(self.host.pop()?))
    }
    fn push(&mut self, _: &mut (), v: Value) -> Result<(), EvalError> {
        self.host.push(v.as_f64()?)
    }
    fn print(&mut self, v: Value, newline: bool) -> Result<(), EvalError> {
        self.host.print(v, newline)
    }
    fn fault(&mut self, e: EvalError) -> EvalError {
        e
    }
    fn give_up(&mut self, why: &'static str) -> EvalError {
        EvalError::new(why)
    }
}

/// Executes a lowered body (or any statement list of one) over `store`,
/// driving `host`, on `fuel` statements and loop tests: the dialect's
/// reference semantics.
///
/// # Errors
///
/// The first [`EvalError`] a statement raises, or exhausted fuel. The
/// store is left as execution left it, then too.
pub fn exec<H: Host>(
    body: &[RStmt],
    store: &mut SlotStore<'_>,
    host: &mut H,
    fuel: u64,
) -> Result<Flow, EvalError> {
    on_store(store, host, fuel, |w, st| match w.body(st, body)? {
        true => Ok(Flow::Normal),
        false => Ok(Flow::Return),
    })
}

/// Evaluates a resolved expression over `store` under the reference
/// semantics, as [`exec`] executes a statement.
///
/// # Errors
///
/// As [`exec`].
pub fn eval<H: Host>(
    expr: &RExpr,
    store: &mut SlotStore<'_>,
    host: &mut H,
    fuel: u64,
) -> Result<Value, EvalError> {
    on_store(store, host, fuel, |w, st| w.eval(st, expr))
}

/// The walk state of the concrete domain over one execution.
type ConcreteState = State<'static, Value, ()>;

/// Moves the store's cells into a concrete walk state, runs `f` on it, and
/// moves them back whatever `f` returned. A cell is moved, never copied:
/// a table costs what a scalar does.
fn on_store<H: Host, R>(
    store: &mut SlotStore<'_>,
    host: &mut H,
    fuel: u64,
    f: impl FnOnce(&mut Walker<'_, 'static, Concrete<'_, H>>, &mut ConcreteState) -> R,
) -> R {
    fn take(cell: &mut Cell) -> ACell<'static, Value> {
        match std::mem::replace(cell, Cell::Scalar(DataType::Int, Value::Int(0))) {
            Cell::Scalar(ty, v) => ACell::Scalar(ty, v),
            Cell::Array(ArrayVal { dims, elem, data }) => ACell::Array(elem, dims, data),
        }
    }
    let mut st = State {
        globals: store.globals.iter_mut().map(take).collect(),
        frame: store.frame.iter_mut().map(take).collect(),
        tape: (),
    };
    let r = f(&mut Walker::new(&mut Concrete { host }, fuel), &mut st);
    let cells = store.globals.iter_mut().chain(store.frame.iter_mut());
    for (cell, walked) in cells.zip(st.globals.into_iter().chain(st.frame)) {
        *cell = match walked {
            ACell::Scalar(ty, v) => Cell::Scalar(ty, v),
            ACell::Array(elem, dims, data) => Cell::Array(ArrayVal { dims, elem, data }),
            ACell::Const(_) => unreachable!("the concrete walk binds every cell as a variable"),
        };
    }
    r
}
