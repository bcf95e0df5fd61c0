//! Slot resolution: the one place a name becomes storage.
//!
//! The paper's compiler resolves every filter name at elaboration time
//! (§2.1, §4.4): fields, parameters and locals are ordinary storage by the
//! time code runs. This module is that resolver, and the only one:
//!
//! * [`lower_filter`] walks each work body **once** at elaboration,
//!   assigns every field/parameter a *global* slot and every lexical local
//!   a *frame* slot (static scoping, shadowing resolved at lowering), and
//!   emits a resolved tree ([`RStmt`]/[`RExpr`]) in which `Expr::Var(name)`
//!   has become [`RExpr::Var`]`(`[`Slot`]`)`. Unknown names, unknown
//!   functions, wrong intrinsic arity and `add` statements are reported
//!   here — at compile time — instead of on the Nth firing. Everything
//!   downstream walks this tree or the bytecode compiled from it: the
//!   runtime tiers, the abstract interpreter ([`crate::analyze`]) and
//!   linear extraction (`streamlin-core`).
//! * While it resolves a body it records what the body can do
//!   ([`Effects`]: the slots it can write, taken or not, and whether it
//!   touches the tape), per phase on [`LoweredWork`] and per loop on
//!   [`RStmt::For`], so no analysis walks a body to rediscover them. It
//!   records the persistent names it resolves too — in a work phase,
//!   `init`, a rate or a field declaration alike — and elaboration
//!   reports as unused every field and parameter none of them reached.
//! * Execution is over a [`SlotStore`]: two plain `Vec<Cell>` arrays
//!   (persistent globals + a reusable frame), no per-block scope maps, no
//!   string hashing, no name cloning on the firing path. The reference
//!   semantics is the abstract walker under its concrete domain
//!   ([`crate::absint::exec`]); the [`crate::bytecode`] tier is held to it.
//! * [`const_eval_expr`] (and `const_exec_stmt`) are elaboration's constant
//!   contexts (rates, dimensions, weights, `add` arguments, container
//!   statements), whose environment is a live `HashMap<String, Cell>`:
//!   the expression is lowered against the map — a name gets a global slot
//!   the first time it is mentioned — only the mentioned cells are moved
//!   into a [`SlotStore`] and back, and the reference walk evaluates it
//!   under [`PureHost`]. The cost follows the expression, not the
//!   environment.
//!
//! A filter's `init` block is lowered and compiled like a work body
//! ([`crate::elaborate::run_init`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use streamlin_lang::ast::{BinOp, Block, DataType, Expr, LValue, Stmt, UnOp};
use streamlin_lang::token::Span;

use crate::exec::{PureHost, DEFAULT_FUEL};
use crate::value::{Cell, EvalError, MathFn, Value};

/// A static resolution error (undefined name, unknown function, `add` in a
/// work body). Reported at elaboration time. [`lower_filter`] collects
/// *every* error in a body rather than stopping at the first.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Explanation of the problem.
    pub message: String,
    /// Source position of the offending statement (the default span when
    /// the body was built without position information).
    pub span: Span,
}

impl LowerError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        LowerError {
            message: message.into(),
            span,
        }
    }
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.span == Span::default() {
            write!(f, "lowering error: {}", self.message)
        } else {
            write!(f, "lowering error at {}: {}", self.span, self.message)
        }
    }
}

impl std::error::Error for LowerError {}

/// A resolved storage location. Globals order before frame slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// Persistent cell (field, stream parameter or captured constant):
    /// index into the instance's global vector, fixed by
    /// [`LoweredFilter::globals`].
    Global(u32),
    /// Per-firing local: index into the frame vector. Disjoint lexical
    /// scopes reuse frame slots; every local is (re)declared before use,
    /// so stale frame contents are never observable.
    Frame(u32),
}

/// A resolved assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum RLValue {
    /// A scalar variable.
    Var(Slot),
    /// An array element.
    Index(Slot, Vec<RExpr>),
}

/// A resolved expression. Mirrors [`Expr`] with names replaced by slots,
/// `pi` folded to its value, intrinsics resolved to [`MathFn`], and
/// `print`/`println` split out of the call form.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Integer literal.
    Int(i64),
    /// Float literal (also lowered `pi`).
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Variable read.
    Var(Slot),
    /// Array element read.
    Index(Slot, Vec<RExpr>),
    /// Unary operation.
    Unary(UnOp, Box<RExpr>),
    /// Binary operation (`&&`/`||` short-circuit).
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// `peek(i)`.
    Peek(Box<RExpr>),
    /// `pop()`.
    Pop,
    /// `push(v)`.
    Push(Box<RExpr>),
    /// Math intrinsic call (arity validated at lowering; never above 2).
    Math(MathFn, Vec<RExpr>),
    /// `print(v)` / `println(v)`.
    Print {
        /// True for `println`.
        newline: bool,
        /// The printed value.
        arg: Box<RExpr>,
    },
    /// Postfix `++`/`--` (evaluates to the pre-increment value).
    PostIncDec {
        /// The mutated location.
        target: RLValue,
        /// `true` for `++`.
        inc: bool,
    },
}

/// A resolved statement. Every variant but `Return` carries the source
/// span of the originating statement, so post-lowering analyses (the
/// abstract interpreter in [`crate::analyze`], the lint driver) can point
/// diagnostics back at the source.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Local declaration into a frame slot. Executing it installs a fresh
    /// zero cell (dimensions re-evaluated), then applies the initializer.
    Decl {
        /// Target frame slot.
        slot: u32,
        /// Element type.
        base: DataType,
        /// Array dimensions (empty for scalars).
        dims: Vec<RExpr>,
        /// Optional initializer.
        init: Option<RExpr>,
        /// Source position.
        span: Span,
    },
    /// Assignment through `=` or a compound operator.
    Assign {
        /// Target location.
        target: RLValue,
        /// Compound operator (`None` for plain `=`).
        op: Option<BinOp>,
        /// Right-hand side.
        value: RExpr,
        /// Source position.
        span: Span,
    },
    /// `if`/`else`.
    If {
        /// Condition.
        cond: RExpr,
        /// Then branch.
        then_blk: Vec<RStmt>,
        /// Optional else branch.
        else_blk: Option<Vec<RStmt>>,
        /// Source position.
        span: Span,
    },
    /// A loop: C-style `for`, and `while` as a `for` with only a condition.
    For {
        /// Initialization statement.
        init: Option<Box<RStmt>>,
        /// Condition (absent means `true`).
        cond: Option<RExpr>,
        /// Step statement.
        step: Option<Box<RStmt>>,
        /// Body.
        body: Vec<RStmt>,
        /// What the header and body can do (what an undecided walk widens).
        fx: Effects,
        /// Source position.
        span: Span,
    },
    /// Expression statement.
    Expr(RExpr, Span),
    /// `return;`.
    Return,
}

impl RStmt {
    /// The source span of this statement.
    pub fn span(&self) -> Span {
        match self {
            RStmt::Decl { span, .. }
            | RStmt::Assign { span, .. }
            | RStmt::If { span, .. }
            | RStmt::For { span, .. }
            | RStmt::Expr(_, span) => *span,
            RStmt::Return => Span::default(),
        }
    }
}

/// What a statement list can do, recorded while it is lowered: every slot
/// it can write — by declaration, assignment or `++`/`--` — on any path,
/// taken or not, and whether it touches the tape.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Effects {
    /// The written slots, sorted and deduplicated.
    pub writes: Vec<Slot>,
    /// Some `peek(i)`.
    pub peeks: bool,
    /// Some `pop()`.
    pub pops: bool,
    /// Some `push(v)`.
    pub pushes: bool,
}

impl Effects {
    /// True if `slot` is among the written slots.
    pub fn may_write(&self, slot: Slot) -> bool {
        self.writes.binary_search(&slot).is_ok()
    }

    /// Sorts and deduplicates the written slots.
    fn seal(&mut self) {
        self.writes.sort_unstable();
        self.writes.dedup();
    }
}

/// One lowered work phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoweredWork {
    /// The resolved body (shared with `code`, which keeps it for the
    /// reference tier).
    pub body: Arc<[RStmt]>,
    /// Frame slots this phase needs.
    pub frame_slots: usize,
    /// What the phase can do: the slots it can write decide which globals
    /// an analysis binds as variables.
    pub fx: Effects,
    /// Statements in the body, counted through `if`/`for`/`while` blocks.
    stmts: usize,
    /// The body typed and flattened to register bytecode
    /// ([`crate::bytecode`]), compiled once here so every consumer of the
    /// phase — both engines, the pipeline executor, the streamlind plan
    /// cache — shares the same compiled form.
    pub code: crate::bytecode::ByteCode,
}

impl LoweredWork {
    /// Number of statements in the body, counted recursively through
    /// `if`/`for`/`while` blocks (each loop body once, a `for`'s header
    /// statements included — a *static* size, used by cost heuristics such
    /// as pipeline stage balancing, not a dynamic execution count).
    pub fn stmt_count(&self) -> usize {
        self.stmts
    }
}

/// The slot-resolved form of a filter's work phases, produced at
/// elaboration and carried on [`crate::ir::FilterInst`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoweredFilter {
    /// Global slot `i` holds the cell of `globals[i]` (sorted field,
    /// parameter and captured-constant names — the deterministic order the
    /// runtime uses to build its `Vec<Cell>` from the instance state).
    pub globals: Vec<String>,
    /// The steady-state work phase.
    pub work: LoweredWork,
    /// The optional first-firing phase.
    pub init_work: Option<LoweredWork>,
    /// True if either phase contains an [`RExpr::Print`]: a side effect
    /// that must never be collapsed away (a printing filter is treated as
    /// non-linear).
    pub prints: bool,
}

impl LoweredFilter {
    /// Frame slots needed to run any phase of this filter.
    pub fn frame_slots(&self) -> usize {
        self.work
            .frame_slots
            .max(self.init_work.as_ref().map_or(0, |w| w.frame_slots))
    }

    /// True if some phase can write `slot`.
    pub fn may_write(&self, slot: Slot) -> bool {
        let mut phases = std::iter::once(&self.work).chain(&self.init_work);
        phases.any(|w| w.fx.may_write(slot))
    }
}

/// Lowers a filter's work phases against its persistent state (fields,
/// parameters, captured constants). Elaboration lowers an `init` block
/// the same way, as a lone `work` body.
///
/// # Errors
///
/// Returns every [`LowerError`] found across both phases — undefined
/// names, unknown functions, wrong intrinsic arity, `add` statements
/// inside a work body — instead of stopping at the first. A statement
/// that fails to lower is dropped and the walk continues (a failed
/// declaration still binds its name, so uses of it don't cascade).
pub fn lower_filter(
    state: &HashMap<String, Cell>,
    work: &Block,
    init_work: Option<&Block>,
) -> Result<LoweredFilter, Vec<LowerError>> {
    lower_filter_noting(state, work, init_work, &mut HashSet::new())
}

/// [`lower_filter`], adding to `uses` every persistent name either phase
/// resolves.
pub(crate) fn lower_filter_noting<'ast>(
    state: &HashMap<String, Cell>,
    work: &'ast Block,
    init_work: Option<&'ast Block>,
    uses: &mut HashSet<&'ast str>,
) -> Result<LoweredFilter, Vec<LowerError>> {
    let mut globals: Vec<String> = state.keys().cloned().collect();
    globals.sort();
    // The compiled signature: a body is typed against what its globals hold.
    let sig: Vec<&Cell> = globals.iter().map(|g| &state[g]).collect();
    let mut lo = Lowerer::new(Globals::Fixed(&globals));
    let work = lo.lower_work(work, &sig);
    let init_work = init_work.map(|w| lo.lower_work(w, &sig));
    let Lowerer {
        errors,
        prints,
        resolved,
        ..
    } = lo;
    uses.extend(resolved);
    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(LoweredFilter {
        globals,
        work,
        init_work,
        prints,
    })
}

/// How persistent names get their global slots.
enum Globals<'c> {
    /// A filter's state: slot `i` is the `i`-th name in sorted order.
    Fixed(&'c [String]),
    /// A constant context's live cells: a name gets the next slot the
    /// first time it is resolved, so slot `i` is the `i`-th entry of
    /// [`Lowerer::resolved`] — and that list is all that has to be moved
    /// into a store.
    Live(&'c HashMap<String, Cell>),
}

/// The lowering pass: a lexical scope stack mapping names to frame slots,
/// with the persistent names underneath. Slot allocation is stack-shaped:
/// leaving a scope releases its slots for reuse by sibling scopes, and
/// `max_frame` records the high-water mark that sizes the runtime frame.
struct Lowerer<'ast, 'c> {
    globals: Globals<'c>,
    /// Every persistent name resolved so far, once each, in the order
    /// first resolved: the uses the unused-declaration lints are built
    /// from.
    resolved: Vec<&'ast str>,
    scopes: Vec<(HashMap<&'ast str, u32>, u32)>,
    next_frame: u32,
    max_frame: u32,
    /// Span of the statement currently being lowered — the position
    /// expression-level errors are reported at.
    cur_span: Span,
    /// Set once any `print`/`println` has been lowered.
    prints: bool,
    /// What the innermost loop (or else the phase) lowered so far can do.
    fx: Effects,
    /// Statements lowered in the phase so far.
    stmts: usize,
    /// Every error found so far, across statements.
    errors: Vec<LowerError>,
}

impl<'ast, 'c> Lowerer<'ast, 'c> {
    fn new(globals: Globals<'c>) -> Self {
        Lowerer {
            globals,
            resolved: Vec::new(),
            scopes: Vec::new(),
            next_frame: 0,
            max_frame: 0,
            cur_span: Span::default(),
            prints: false,
            fx: Effects::default(),
            stmts: 0,
            errors: Vec::new(),
        }
    }

    /// Lowers one work phase (frame slots start over) and compiles it.
    fn lower_work(&mut self, body: &'ast Block, sig: &[&Cell]) -> LoweredWork {
        (self.next_frame, self.max_frame, self.stmts) = (0, 0, 0);
        let body: Arc<[RStmt]> = self.lower_block(body).into();
        let mut fx = std::mem::take(&mut self.fx);
        fx.seal();
        let frame_slots = self.max_frame as usize;
        let code = crate::bytecode::compile(Arc::clone(&body), sig, frame_slots);
        LoweredWork {
            body,
            frame_slots,
            fx,
            stmts: self.stmts,
            code,
        }
    }

    fn err(&self, message: impl Into<String>) -> LowerError {
        LowerError::new(message, self.cur_span)
    }

    fn push_scope(&mut self) {
        self.scopes.push((HashMap::new(), self.next_frame));
    }

    fn pop_scope(&mut self) {
        let (_, watermark) = self.scopes.pop().expect("scope stack underflow");
        self.next_frame = watermark;
    }

    fn declare(&mut self, name: &'ast str) -> u32 {
        let slot = self.next_frame;
        self.fx.writes.push(Slot::Frame(slot));
        self.next_frame += 1;
        self.max_frame = self.max_frame.max(self.next_frame);
        self.scopes
            .last_mut()
            .expect("declarations only occur inside a scope")
            .0
            .insert(name, slot);
        slot
    }

    fn resolve(&mut self, name: &'ast str) -> Result<Slot, LowerError> {
        for (scope, _) in self.scopes.iter().rev() {
            if let Some(&s) = scope.get(name) {
                return Ok(Slot::Frame(s));
            }
        }
        let seen = self.resolved.iter().position(|r| *r == name);
        let slot = match self.globals {
            Globals::Fixed(sorted) => sorted.binary_search_by(|g| g.as_str().cmp(name)).ok(),
            Globals::Live(cells) => {
                seen.or_else(|| cells.contains_key(name).then_some(self.resolved.len()))
            }
        };
        let slot = slot.ok_or_else(|| self.err(format!("undefined variable `{name}`")))?;
        if seen.is_none() {
            self.resolved.push(name);
        }
        Ok(Slot::Global(slot as u32))
    }

    /// Lowers a block, recording (not propagating) per-statement errors:
    /// a statement that fails is dropped from the output and the walk
    /// continues with the next one, so one pass reports them all.
    fn lower_block(&mut self, block: &'ast Block) -> Vec<RStmt> {
        self.push_scope();
        let mut out = Vec::with_capacity(block.stmts.len());
        for (span, s) in &block.stmts {
            match self.lower_stmt(s, *span) {
                Ok(r) => out.push(r),
                Err(e) => {
                    self.errors.push(e);
                    // Keep the name visible so later uses of a failed
                    // declaration don't cascade into `undefined variable`.
                    if let Stmt::Decl { name, .. } = s {
                        self.declare(name);
                    }
                }
            }
        }
        self.pop_scope();
        out
    }

    fn lower_stmt(&mut self, stmt: &'ast Stmt, span: Span) -> Result<RStmt, LowerError> {
        self.cur_span = span;
        self.stmts += 1;
        Ok(match stmt {
            Stmt::Decl { ty, name, init } => {
                // Dimensions are evaluated before the name becomes
                // visible; the initializer sees the new (zeroed) variable.
                let dims = self.lower_exprs(&ty.dims)?;
                let slot = self.declare(name);
                let init = init.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                RStmt::Decl {
                    slot,
                    base: ty.base,
                    dims,
                    init,
                    span,
                }
            }
            Stmt::Assign { target, op, value } => RStmt::Assign {
                target: self.lower_lvalue(target)?,
                op: *op,
                value: self.lower_expr(value)?,
                span,
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => RStmt::If {
                cond: self.lower_expr(cond)?,
                then_blk: self.lower_block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.lower_block(b)),
                span,
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.lower_loop(init.as_deref(), cond.as_ref(), step.as_deref(), body, span)?,
            Stmt::While { cond, body } => self.lower_loop(None, Some(cond), None, body, span)?,
            Stmt::Expr(e) => RStmt::Expr(self.lower_expr(e)?, span),
            Stmt::Return => RStmt::Return,
            Stmt::Add(_) => {
                return Err(self.err("`add` is only allowed in stream container bodies"))
            }
        })
    }

    /// Lowers a loop — a `while` is a `for` with only a condition — and
    /// keeps what its header and body can do, which the enclosing summary
    /// gets too. The init declaration lives in its own scope that also
    /// encloses the condition, step and body. The header statements have
    /// no spans of their own and inherit the loop's.
    fn lower_loop(
        &mut self,
        init: Option<&'ast Stmt>,
        cond: Option<&'ast Expr>,
        step: Option<&'ast Stmt>,
        body: &'ast Block,
        span: Span,
    ) -> Result<RStmt, LowerError> {
        let outer = std::mem::take(&mut self.fx);
        self.push_scope();
        let r = (|| {
            let init = init
                .map(|s| self.lower_stmt(s, span).map(Box::new))
                .transpose()?;
            self.cur_span = span;
            let cond = cond.map(|e| self.lower_expr(e)).transpose()?;
            let step = step
                .map(|s| self.lower_stmt(s, span).map(Box::new))
                .transpose()?;
            Ok((init, cond, step, self.lower_block(body)))
        })();
        self.pop_scope();
        let mut fx = std::mem::replace(&mut self.fx, outer);
        fx.seal();
        self.fx.writes.extend_from_slice(&fx.writes);
        self.fx.peeks |= fx.peeks;
        self.fx.pops |= fx.pops;
        self.fx.pushes |= fx.pushes;
        let (init, cond, step, body) = r?;
        Ok(RStmt::For {
            init,
            cond,
            step,
            body,
            fx,
            span,
        })
    }

    fn lower_lvalue(&mut self, lv: &'ast LValue) -> Result<RLValue, LowerError> {
        let lv = match lv {
            LValue::Var(name) => RLValue::Var(self.resolve(name)?),
            LValue::Index(name, idx) => RLValue::Index(self.resolve(name)?, self.lower_exprs(idx)?),
        };
        let (RLValue::Var(slot) | RLValue::Index(slot, _)) = &lv;
        self.fx.writes.push(*slot);
        Ok(lv)
    }

    fn lower_exprs(&mut self, exprs: &'ast [Expr]) -> Result<Vec<RExpr>, LowerError> {
        exprs.iter().map(|e| self.lower_expr(e)).collect()
    }

    fn lower_expr(&mut self, expr: &'ast Expr) -> Result<RExpr, LowerError> {
        match expr {
            Expr::Peek(_) => self.fx.peeks = true,
            Expr::Pop => self.fx.pops = true,
            Expr::Push(_) => self.fx.pushes = true,
            _ => {}
        }
        Ok(match expr {
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Float(v) => RExpr::Float(*v),
            Expr::Bool(v) => RExpr::Bool(*v),
            Expr::Pi => RExpr::Float(std::f64::consts::PI),
            Expr::Var(name) => RExpr::Var(self.resolve(name)?),
            Expr::Index(name, idx) => RExpr::Index(self.resolve(name)?, self.lower_exprs(idx)?),
            Expr::Unary(op, e) => RExpr::Unary(*op, Box::new(self.lower_expr(e)?)),
            Expr::Binary(op, a, b) => RExpr::Binary(
                *op,
                Box::new(self.lower_expr(a)?),
                Box::new(self.lower_expr(b)?),
            ),
            Expr::Peek(i) => RExpr::Peek(Box::new(self.lower_expr(i)?)),
            Expr::Pop => RExpr::Pop,
            Expr::Push(e) => RExpr::Push(Box::new(self.lower_expr(e)?)),
            Expr::Call(name, args) => {
                if name == "print" || name == "println" {
                    if args.len() != 1 {
                        return Err(self.err(format!("{name} expects 1 argument")));
                    }
                    self.prints = true;
                    return Ok(RExpr::Print {
                        newline: name == "println",
                        arg: Box::new(self.lower_expr(&args[0])?),
                    });
                }
                let f = MathFn::from_name(name)
                    .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
                if args.len() != f.arity() {
                    return Err(self.err(format!(
                        "{name} expects {} argument(s), got {}",
                        f.arity(),
                        args.len()
                    )));
                }
                RExpr::Math(f, self.lower_exprs(args)?)
            }
            Expr::PostIncDec { target, inc } => RExpr::PostIncDec {
                target: self.lower_lvalue(target)?,
                inc: *inc,
            },
        })
    }
}

// ---- execution --------------------------------------------------------------

/// The storage a firing executes over: the instance's persistent globals
/// (ordered by [`LoweredFilter::globals`]) and a reusable local frame.
#[derive(Debug)]
pub struct SlotStore<'a> {
    /// Persistent cells, global slot order.
    pub globals: &'a mut [Cell],
    /// Frame cells; contents need not be initialized (every local is
    /// declared before use).
    pub frame: &'a mut [Cell],
}

// ---- constant contexts --------------------------------------------------------

/// Moves the named cells out of `cells` into a [`SlotStore`] — global slot
/// `i` is `names[i]` — over a fresh frame, runs `f`, and moves them back
/// whatever `f` returned. Cells are moved, never copied: a captured table
/// costs the same as a scalar.
pub(crate) fn with_cells_as_store<R>(
    cells: &mut HashMap<String, Cell>,
    names: &[impl AsRef<str>],
    frame_slots: usize,
    f: impl FnOnce(&mut SlotStore<'_>) -> R,
) -> R {
    let (keys, mut globals): (Vec<String>, Vec<Cell>) = names
        .iter()
        .map(|n| {
            cells
                .remove_entry(n.as_ref())
                .expect("global slots were resolved against these cells")
        })
        .unzip();
    let mut frame = vec![Cell::zero_of(DataType::Int, Vec::new()); frame_slots];
    let r = f(&mut SlotStore {
        globals: &mut globals,
        frame: &mut frame,
    });
    cells.extend(keys.into_iter().zip(globals));
    r
}

/// Lowers one piece of syntax against the live `cells`, then runs it on
/// the reference walk over just the cells it mentions, which it adds to
/// `uses`.
fn const_run<'ast, L, R>(
    cells: &mut HashMap<String, Cell>,
    uses: &mut HashSet<&'ast str>,
    lower: impl FnOnce(&mut Lowerer<'ast, '_>) -> Result<L, LowerError>,
    run: impl FnOnce(&mut SlotStore<'_>, &L) -> Result<R, EvalError>,
) -> Result<R, EvalError> {
    let mut lo = Lowerer::new(Globals::Live(cells));
    lo.push_scope();
    let lowered = lower(&mut lo);
    let (mentioned, frame_slots) = (lo.resolved, lo.max_frame as usize);
    uses.extend(&mentioned);
    let lowered = lowered.map_err(|e| EvalError::new(e.message))?;
    with_cells_as_store(cells, &mentioned, frame_slots, |store| run(store, &lowered))
}

/// Evaluates a single expression in a constant context over the given
/// live cells.
///
/// # Errors
///
/// Fails if the expression uses tape operations, printing, or undefined
/// names.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use streamlin_graph::lower::const_eval_expr;
/// use streamlin_graph::value::Value;
/// use streamlin_lang::ast::{BinOp, Expr};
///
/// let mut cells = HashMap::new();
/// let e = Expr::Binary(BinOp::Mul, Box::new(Expr::Int(6)), Box::new(Expr::Int(7)));
/// assert_eq!(const_eval_expr(&mut cells, &e).unwrap(), Value::Int(42));
/// ```
pub fn const_eval_expr(cells: &mut HashMap<String, Cell>, expr: &Expr) -> Result<Value, EvalError> {
    const_eval_noting(cells, expr, &mut HashSet::new())
}

/// [`const_eval_expr`], adding to `uses` every name `expr` resolves.
pub(crate) fn const_eval_noting<'ast>(
    cells: &mut HashMap<String, Cell>,
    expr: &'ast Expr,
    uses: &mut HashSet<&'ast str>,
) -> Result<Value, EvalError> {
    const_run(
        cells,
        uses,
        |lo| lo.lower_expr(expr),
        |store, e| crate::absint::eval(e, store, &mut PureHost, DEFAULT_FUEL),
    )
}

/// Executes one assignment or expression statement in a constant context
/// over the given live cells (container-body elaboration, for statements
/// interleaved with `add`s). A declaration executed here would be a frame
/// local that vanishes with the call; elaboration binds those itself.
///
/// # Errors
///
/// Fails on tape operations, printing, `add`, or undefined names.
pub(crate) fn const_exec_stmt(
    cells: &mut HashMap<String, Cell>,
    stmt: &Stmt,
) -> Result<(), EvalError> {
    const_run(
        cells,
        &mut HashSet::new(),
        |lo| lo.lower_stmt(stmt, Span::default()),
        |store, s| {
            let body = std::slice::from_ref(s);
            crate::absint::exec(body, store, &mut PureHost, DEFAULT_FUEL).map(|_| ())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Host;
    use crate::value::ArrayVal;
    use streamlin_lang::ast::StreamKind;
    use streamlin_lang::parse;

    fn lowered_for(src: &str) -> (LoweredFilter, HashMap<String, Cell>) {
        let p = parse(src).unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!("expected filter");
        };
        let mut state = HashMap::new();
        for field in &f.fields {
            state.insert(field.name.clone(), Cell::zero_of(field.ty.base, Vec::new()));
        }
        (lower_filter(&state, &f.work.body, None).unwrap(), state)
    }

    /// Host used by the lowering unit tests.
    #[derive(Default)]
    struct TestHost {
        pushed: Vec<f64>,
    }

    impl Host for TestHost {
        fn peek(&mut self, _i: usize) -> Result<f64, EvalError> {
            Err(EvalError::new("no input"))
        }
        fn pop(&mut self) -> Result<f64, EvalError> {
            Err(EvalError::new("no input"))
        }
        fn push(&mut self, v: f64) -> Result<(), EvalError> {
            self.pushed.push(v);
            Ok(())
        }
        fn print(&mut self, v: Value, _nl: bool) -> Result<(), EvalError> {
            self.pushed.push(v.as_f64()?);
            Ok(())
        }
    }

    /// One firing of `src`'s work body on the reference walk, on a fuel
    /// budget; what it pushed (and printed), or why it stopped.
    fn run_with_fuel(src: &str, fuel: u64) -> Result<Vec<f64>, EvalError> {
        let (lowered, mut state) = lowered_for(src);
        let mut host = TestHost::default();
        with_cells_as_store(
            &mut state,
            &lowered.globals,
            lowered.frame_slots(),
            |store| crate::absint::exec(&lowered.work.body, store, &mut host, fuel),
        )?;
        Ok(host.pushed)
    }

    fn run(src: &str) -> Vec<f64> {
        run_with_fuel(src, 1_000_000).unwrap()
    }

    #[test]
    fn globals_are_sorted_and_resolved() {
        let (lowered, _) = lowered_for(
            "void->float filter F {
                float z; float a;
                work push 1 { push(a + z); }
            }",
        );
        assert_eq!(lowered.globals, vec!["a".to_string(), "z".to_string()]);
        // `a + z` resolves to Global(0) + Global(1).
        let RStmt::Expr(RExpr::Push(e), _) = &lowered.work.body[0] else {
            panic!("{:?}", lowered.work.body);
        };
        let RExpr::Binary(BinOp::Add, lhs, rhs) = &**e else {
            panic!()
        };
        assert_eq!(**lhs, RExpr::Var(Slot::Global(0)));
        assert_eq!(**rhs, RExpr::Var(Slot::Global(1)));
    }

    #[test]
    fn locals_shadow_globals_statically() {
        let (lowered, _) = lowered_for(
            "void->float filter F {
                float x;
                work push 2 {
                    push(x);
                    float x = 7;
                    push(x);
                }
            }",
        );
        let RStmt::Expr(RExpr::Push(first), _) = &lowered.work.body[0] else {
            panic!()
        };
        assert_eq!(**first, RExpr::Var(Slot::Global(0)));
        let RStmt::Expr(RExpr::Push(second), _) = &lowered.work.body[2] else {
            panic!()
        };
        assert_eq!(**second, RExpr::Var(Slot::Frame(0)));
    }

    #[test]
    fn inner_scopes_shadow_and_restore() {
        let pushed = run("void->float filter F {
                work push 2 {
                    int x = 1;
                    for (int x = 10; x < 11; x++) { push(x); }
                    push(x);
                }
            }");
        assert_eq!(pushed, vec![10.0, 1.0]);
    }

    #[test]
    fn sibling_scopes_reuse_frame_slots() {
        let (lowered, _) = lowered_for(
            "void->float filter F {
                work push 2 {
                    if (true) { int a = 1; push(a); }
                    if (true) { int b = 2; push(b); }
                }
            }",
        );
        // Both branch locals occupy frame slot 0; the frame never grows
        // past one slot.
        assert_eq!(lowered.work.frame_slots, 1);
    }

    #[test]
    fn declaration_initializer_sees_the_new_zeroed_variable() {
        // `int x = x + 1` reads the freshly declared x (0), not an outer
        // binding: declare, then assign.
        let pushed = run("void->float filter F {
                work push 2 {
                    int x = 40;
                    if (true) {
                        int x = x + 1;
                        push(x);
                    }
                    push(x);
                }
            }");
        assert_eq!(pushed, vec![1.0, 40.0]);
    }

    /// The errors of lowering the work body of a filter without state.
    fn lower_errs(src: &str) -> Vec<LowerError> {
        let p = parse(src).unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!("expected filter");
        };
        lower_filter(&HashMap::new(), &f.work.body, None).unwrap_err()
    }

    #[test]
    fn undefined_variable_is_a_lowering_error() {
        let errs = lower_errs("void->float filter F { work push 1 { push(nope); } }");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("nope"), "{errs:?}");
        assert_ne!(errs[0].span, Span::default(), "error carries a position");
    }

    #[test]
    fn unknown_function_is_a_lowering_error() {
        let errs = lower_errs("void->float filter F { work push 1 { push(frob(1)); } }");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("frob"), "{errs:?}");
    }

    #[test]
    fn all_errors_reported_in_one_pass_with_spans() {
        let errs = lower_errs(
            "void->float filter F {
                work push 2 {
                    push(nope);
                    int ok = 1;
                    push(frob(ok));
                    push(alsonope);
                }
            }",
        );
        let msgs: Vec<&str> = errs.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(errs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("nope"));
        assert!(msgs[1].contains("frob"));
        assert!(msgs[2].contains("alsonope"));
        // Each error points at its own statement.
        assert!(errs[0].span.line < errs[1].span.line);
        assert!(errs[1].span.line < errs[2].span.line);
    }

    #[test]
    fn failed_declaration_does_not_cascade() {
        // `int x = frob();` fails, but a later use of `x` must not produce
        // a second, spurious `undefined variable` error.
        let errs = lower_errs(
            "void->float filter F {
                work push 1 {
                    int x = frob();
                    push(x);
                }
            }",
        );
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].message.contains("frob"));
    }

    #[test]
    fn statements_carry_their_source_spans() {
        let (lowered, _) = lowered_for(
            "void->float filter F {
                work push 1 {
                    int x = 1;
                    push(x);
                }
            }",
        );
        let spans: Vec<Span> = lowered.work.body.iter().map(|s| s.span()).collect();
        assert!(spans.iter().all(|s| *s != Span::default()));
        assert!(spans[0].line < spans[1].line);
    }

    #[test]
    fn loop_locals_redeclare_per_iteration() {
        let pushed = run("void->float filter F {
                work push 3 {
                    for (int i = 0; i < 3; i++) {
                        float s;
                        s = s + i;
                        push(s);
                    }
                }
            }");
        // `s` is re-zeroed by its declaration every iteration.
        assert_eq!(pushed, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn side_effecting_index_evaluated_once() {
        let pushed = run("void->float filter F {
                work push 3 {
                    float[2] a;
                    int i = 0;
                    a[i++] += 10;
                    push(a[0]);
                    push(a[1]);
                    push(i);
                }
            }");
        assert_eq!(pushed, vec![10.0, 0.0, 1.0]);
    }

    #[test]
    fn side_effecting_index_evaluated_once_in_post_inc() {
        // `a[i++]++` increments a[0] (the old i), not a[1], and leaves i=1.
        let pushed = run("void->float filter F {
                work push 3 {
                    float[2] a;
                    int i = 0;
                    a[i++]++;
                    push(a[0]);
                    push(a[1]);
                    push(i);
                }
            }");
        assert_eq!(pushed, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn post_increment_yields_old_value() {
        let pushed = run("void->float filter F {
                work push 2 {
                    float x = 5;
                    push(x++);
                    push(x);
                }
            }");
        assert_eq!(pushed, vec![5.0, 6.0]);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let src = "float->float filter F { work push 1 pop 1 { while (true) { } } }";
        let err = run_with_fuel(src, 1000).unwrap_err();
        assert!(err.message.contains("fuel"), "{err}");
    }

    /// The effects a `for`/`while` statement kept.
    fn loop_fx(s: &RStmt) -> &Effects {
        let RStmt::For { fx, .. } = s else {
            panic!("not a loop: {s:?}")
        };
        fx
    }

    #[test]
    fn lowering_records_what_each_body_and_loop_can_do() {
        let (lowered, _) = lowered_for(
            "float->float filter F {
                float g; float h; float[4] a; int i;
                work peek 2 pop 1 push 1 {
                    if (false) g = 1.0;
                    for (int j = 0; j < 2; j++) {
                        float s = peek(j);
                        for (int k = 0; k < 2; k++) h += s;
                    }
                    a[i++] = pop();
                    push(h);
                }
            }",
        );
        assert_eq!(lowered.globals, ["a", "g", "h", "i"]);
        let [a, g, h, i] = [0, 1, 2, 3].map(Slot::Global);
        let [j, s, k] = [0, 1, 2].map(Slot::Frame);
        let work = &lowered.work;
        // `g` is listed although its store is dead: taken or not. `a[i++]`
        // writes both `a` and `i`.
        assert_eq!(work.fx.writes, [a, g, h, i, j, s, k]);
        assert!(work.fx.peeks && work.fx.pops && work.fx.pushes);
        let outer = loop_fx(&work.body[1]);
        // The local declared inside the loop is the loop's write too.
        assert_eq!(outer.writes, [h, j, s, k]);
        assert!(outer.peeks && !outer.pops && !outer.pushes);
        let RStmt::For { body, .. } = &work.body[1] else {
            unreachable!()
        };
        let inner = loop_fx(&body[1]);
        assert_eq!(inner.writes, [h, k]);
        assert!(!inner.peeks && !inner.pops && !inner.pushes);
        for (sub, sup) in [(inner, outer), (outer, &work.fx)] {
            assert!(sub.writes.iter().all(|&w| sup.may_write(w)));
        }
        // if 1 + assign 1, for 1 + init 1 + step 1, decl 1, inner for 1 +
        // init 1 + step 1 + body 1, assign 1, push 1.
        assert_eq!(work.stmt_count(), 12);
    }

    #[test]
    fn a_while_records_what_the_equivalent_for_does() {
        let while_loop = lowered_for(
            "void->float filter F { work push 3 {
                int n = 0; while (n < 3) { push(n); n++; }
            } }",
        )
        .0;
        let for_loop = lowered_for(
            "void->float filter F { work push 3 {
                int n = 0; for (; n < 3; n++) push(n);
            } }",
        )
        .0;
        let fx = loop_fx(&while_loop.work.body[1]);
        assert_eq!(fx, loop_fx(&for_loop.work.body[1]));
        assert_eq!(fx.writes, [Slot::Frame(0)]);
        assert!(!fx.peeks && !fx.pops && fx.pushes);
        assert_eq!(while_loop.work.fx, for_loop.work.fx);
        assert_eq!(while_loop.work.stmt_count(), 4);
        assert_eq!(for_loop.work.stmt_count(), 4);
    }

    // ---- constant contexts ---------------------------------------------

    fn int(v: i64) -> Cell {
        Cell::Scalar(DataType::Int, Value::Int(v))
    }

    fn call(name: &str, arg: Expr) -> Expr {
        Expr::Call(name.to_string(), vec![arg])
    }

    #[test]
    fn const_context_rejects_tape_ops_and_printing() {
        let mut cells = HashMap::new();
        for e in [
            Expr::Pop,
            Expr::Peek(Box::new(Expr::Int(0))),
            Expr::Push(Box::new(Expr::Int(0))),
            call("println", Expr::Int(1)),
        ] {
            let err = const_eval_expr(&mut cells, &e).unwrap_err();
            assert!(err.message.contains("constant context"), "{e:?}: {err}");
        }
    }

    #[test]
    fn const_eval_moves_only_the_mentioned_cells_and_puts_them_back() {
        let table = Cell::Array(ArrayVal::zeros(DataType::Float, vec![4096]));
        let mut cells = HashMap::from([
            ("n".to_string(), int(6)),
            ("table".to_string(), table.clone()),
        ]);
        let e = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Var("n".into())),
            Box::new(Expr::Var("n".into())),
        );
        assert_eq!(const_eval_expr(&mut cells, &e).unwrap(), Value::Int(36));
        // An evaluation error leaves the environment intact too.
        let bad = Expr::Index("table".into(), vec![Expr::Var("n".into()), Expr::Int(0)]);
        assert!(const_eval_expr(&mut cells, &bad).is_err());
        assert_eq!(cells.len(), 2);
        assert_eq!(cells["n"], int(6));
        assert_eq!(cells["table"], table);
    }

    #[test]
    fn const_eval_reports_undefined_names_and_functions_by_name() {
        let mut cells = HashMap::from([("n".to_string(), int(1))]);
        let err = const_eval_expr(&mut cells, &Expr::Var("nope".into())).unwrap_err();
        assert_eq!(err.message, "undefined variable `nope`");
        let err = const_eval_expr(&mut cells, &call("frob", Expr::Int(1))).unwrap_err();
        assert_eq!(err.message, "unknown function `frob`");
        assert_eq!(cells["n"], int(1));
    }

    #[test]
    fn const_exec_stmt_writes_through_to_the_live_cells() {
        let mut cells = HashMap::from([("i".to_string(), int(3))]);
        let step = Stmt::Expr(Expr::PostIncDec {
            target: LValue::Var("i".into()),
            inc: true,
        });
        const_exec_stmt(&mut cells, &step).unwrap();
        assert_eq!(cells["i"], int(4));
        let assign = Stmt::Assign {
            target: LValue::Var("i".into()),
            op: Some(BinOp::Mul),
            value: Expr::Var("i".into()),
        };
        const_exec_stmt(&mut cells, &assign).unwrap();
        assert_eq!(cells["i"], int(16));
    }

    #[test]
    fn pi_is_folded_at_lowering() {
        let (lowered, _) = lowered_for("void->float filter F { work push 1 { push(pi); } }");
        let RStmt::Expr(RExpr::Push(e), _) = &lowered.work.body[0] else {
            panic!()
        };
        assert_eq!(**e, RExpr::Float(std::f64::consts::PI));
    }
}
