//! The typer: one pass over a lowered body that resolves every operand's
//! type, allocates registers and emits typed three-address code — or
//! refuses the body, which then runs on the reference tier.
//!
//! A register index names a slot in *both* files; the opcode says which.
//! Frame slot `k`'s scalar is register `k`. Above the locals, literals and
//! promoted globals are *pinned* — live from entry, so each takes an index
//! nothing before it has used — and temporaries are stack-allocated per
//! expression and released when their consumer has been emitted. An
//! expression that computes a value writes it straight into the
//! destination its consumer names (`x = a + b` is one `AddF`), always in
//! its last instruction, so a destination that is also an operand is read
//! before it is written.

use streamlin_lang::ast::{BinOp, DataType, UnOp};

use super::{DotOperand, DotSpec, GlobalScalar, Op, Ty, Typed, A, FRAME_BIT, MAX_RANK, R};
use crate::lower::{RExpr, RLValue, RStmt, Slot};
use crate::value::{Cell, MathFn};

/// `Err` is why a body has no typed form: something that can only be an
/// error (or nothing, in dead code) on the reference tier, never a value.
type Typing<T> = Result<T, &'static str>;

/// A typed operand in a register.
#[derive(Debug, Clone, Copy)]
struct Val {
    ty: Ty,
    r: R,
    /// A variable's own register: a `++` evaluated later can change it.
    var: bool,
    /// An int literal (promotion folds it).
    lit: Option<i64>,
}

impl Val {
    fn temp(ty: Ty, r: R) -> Val {
        let (var, lit) = (false, None);
        Val { ty, r, var, lit }
    }
}

/// What a storage slot holds at this point of the body.
#[derive(Debug, Clone, Copy)]
enum Bind {
    Unbound,
    Scalar(Ty, R),
    /// Element type, rank, reference.
    Array(Ty, usize, A),
}

/// Where a consumer wants a value, if it has a typed place for it.
type Dst = Option<(Ty, R)>;

struct Typer<'s> {
    /// The cells of the globals: the signature the body is typed against.
    sig: &'s [&'s Cell],
    /// The program being built.
    t: Typed,
    /// Register allocation: the next free index, the index below which
    /// nothing is ever reused, and the high-water mark.
    next: u32,
    floor: u32,
    /// The binding of each frame slot, as of the statement being typed.
    locals: Vec<Bind>,
    /// The open run: the pc of a `Spend` later statements may still join.
    run: Option<usize>,
}

pub(super) fn compile(body: &[RStmt], sig: &[&Cell], frame_slots: usize) -> Typing<Typed> {
    let mut typer = Typer {
        sig,
        t: Typed {
            regs: frame_slots,
            ..Typed::default()
        },
        next: frame_slots as u32,
        floor: frame_slots as u32,
        locals: vec![Bind::Unbound; frame_slots],
        run: None,
    };
    typer.block(body)?;
    match typer.t.regs > usize::from(R::MAX) + 1 {
        true => Err("more than 65536 registers"),
        false => Ok(typer.t),
    }
}

/// True when `p` holds for `e` or an expression inside it.
fn any(e: &RExpr, p: &mut impl FnMut(&RExpr) -> bool) -> bool {
    if p(e) {
        return true;
    }
    match e {
        RExpr::Int(_) | RExpr::Float(_) | RExpr::Bool(_) | RExpr::Var(_) | RExpr::Pop => false,
        RExpr::Index(_, es)
        | RExpr::Math(_, es)
        | RExpr::PostIncDec {
            target: RLValue::Index(_, es),
            ..
        } => es.iter().any(|e| any(e, p)),
        RExpr::PostIncDec { .. } => false,
        RExpr::Unary(_, a) | RExpr::Peek(a) | RExpr::Push(a) | RExpr::Print { arg: a, .. } => {
            any(a, p)
        }
        RExpr::Binary(_, a, b) => any(a, p) || any(b, p),
    }
}

/// Evaluating `e` may change a variable's register.
fn has_incdec(e: &RExpr) -> bool {
    let steps_var = |e: &RExpr| match e {
        RExpr::PostIncDec { target, .. } => matches!(target, RLValue::Var(_)),
        _ => false,
    };
    any(e, &mut { steps_var })
}

/// `e` mentions frame slot `slot`.
fn mentions_frame(e: &RExpr, slot: u32) -> bool {
    any(e, &mut |e| match e {
        RExpr::Var(s)
        | RExpr::Index(s, _)
        | RExpr::PostIncDec {
            target: RLValue::Var(s) | RLValue::Index(s, _),
            ..
        } => *s == Slot::Frame(slot),
        _ => false,
    })
}

fn mov(ty: Ty, d: R, s: R) -> Op {
    match ty {
        Ty::Float => Op::MovF(d, s),
        Ty::Int | Ty::Bool => Op::MovI(d, s),
    }
}

/// The int and float opcodes of a binary operator and their result type.
#[allow(clippy::type_complexity)]
fn opcodes(op: BinOp) -> (Option<fn(R, R, R) -> Op>, Option<fn(R, R, R) -> Op>, Ty) {
    use BinOp::*;
    let (int, float): (fn(R, R, R) -> Op, Option<fn(R, R, R) -> Op>) = match op {
        Add => (Op::AddI, Some(Op::AddF)),
        Sub => (Op::SubI, Some(Op::SubF)),
        Mul => (Op::MulI, Some(Op::MulF)),
        Div => (Op::DivI, Some(Op::DivF)),
        Rem => (Op::RemI, Some(Op::RemF)),
        BitAnd => (Op::AndI, None),
        BitOr => (Op::OrI, None),
        BitXor => (Op::XorI, None),
        Shl => (Op::ShlI, None),
        Shr => (Op::ShrI, None),
        Eq => (Op::EqI, Some(Op::EqF)),
        Ne => (Op::NeI, Some(Op::NeF)),
        Lt => (Op::LtI, Some(Op::LtF)),
        Gt => (Op::GtI, Some(Op::GtF)),
        Le => (Op::LeI, Some(Op::LeF)),
        Ge => (Op::GeI, Some(Op::GeF)),
        // Short circuit in expressions; not a compound operator.
        And | Or => return (None, None, Ty::Bool),
    };
    let ty = if op.is_comparison() {
        Ty::Bool
    } else {
        Ty::Int
    };
    (Some(int), float, ty)
}

impl Typer<'_> {
    // ---- registers ------------------------------------------------------

    fn temp(&mut self) -> R {
        let r = self.next;
        self.next += 1;
        self.t.regs = self.t.regs.max(self.next as usize);
        // An index past `R::MAX` truncates; `compile` refuses the body.
        r as R
    }

    /// A register that is live from entry (a literal, a promoted global):
    /// one no earlier instruction can have used as a temporary, and none
    /// will use after.
    fn pin(&mut self) -> R {
        self.next = self.t.regs as u32;
        let r = self.temp();
        self.floor = self.next;
        r
    }

    fn release(&mut self, mark: u32) {
        self.next = mark.max(self.floor);
    }

    /// The destination's register when it has the produced type.
    fn out(&mut self, dst: Dst, ty: Ty) -> R {
        match dst {
            Some((t, r)) if t == ty => r,
            _ => self.temp(),
        }
    }

    /// The register preloaded with a literal (`bits` of an `f64` or `i64`).
    fn constant(&mut self, float: bool, bits: u64) -> R {
        if let Some(c) = self.t.consts.iter().find(|c| (c.1, c.2) == (float, bits)) {
            return c.0;
        }
        let r = self.pin();
        self.t.consts.push((r, float, bits));
        r
    }

    fn const_i(&mut self, v: i64) -> R {
        self.constant(false, v as u64)
    }

    fn const_f(&mut self, v: f64) -> R {
        self.constant(true, v.to_bits())
    }

    fn lit_i(&mut self, v: i64) -> Val {
        let lit = Some(v);
        Val {
            lit,
            ..Val::temp(Ty::Int, self.const_i(v))
        }
    }

    /// What `slot` holds. A scalar global is promoted to a register on
    /// first mention (and stored back when `write`); a global array joins
    /// the signature the entry check verifies.
    fn resolve(&mut self, slot: Slot, write: bool) -> Typing<Bind> {
        let g = match slot {
            Slot::Frame(k) => return Ok(self.locals[k as usize]),
            Slot::Global(g) => g,
        };
        let (dt, rank) = match self.sig.get(g as usize) {
            Some(Cell::Scalar(dt, _)) => (*dt, None),
            Some(Cell::Array(a)) => (a.elem, Some(a.dims.len())),
            None => return Err("global slot outside the signature"),
        };
        let ty = Ty::of(dt).ok_or("void-typed storage")?;
        if let Some(rank) = rank {
            if g >= u32::from(FRAME_BIT) {
                return Err("more than 32768 storage slots");
            }
            if !self.t.arrays.iter().any(|a| a.0 == g) {
                self.t.arrays.push((g, ty, rank));
            }
            return Ok(Bind::Array(ty, rank, g as A));
        }
        if let Some(s) = self.t.scalars.iter_mut().find(|s| s.slot == g) {
            s.written |= write;
            return Ok(Bind::Scalar(ty, s.reg));
        }
        let (slot, reg, written) = (g, self.pin(), write);
        self.t.scalars.push(GlobalScalar {
            slot,
            ty,
            reg,
            written,
        });
        Ok(Bind::Scalar(ty, reg))
    }

    /// The type and register of a scalar variable.
    fn scalar(&mut self, slot: Slot, write: bool) -> Typing<(Ty, R)> {
        match self.resolve(slot, write)? {
            Bind::Scalar(ty, r) => Ok((ty, r)),
            _ => Err("array (or undeclared local) used as a scalar"),
        }
    }

    /// The element type and reference of an array indexed `rank` deep.
    fn array(&mut self, slot: Slot, rank: usize) -> Typing<(Ty, A)> {
        match self.resolve(slot, false)? {
            Bind::Array(ty, have, a) if have == rank => Ok((ty, a)),
            Bind::Array(..) => Err("index count differs from the array's rank"),
            _ => Err("scalar indexed as an array"),
        }
    }

    // ---- emission -------------------------------------------------------

    fn emit(&mut self, op: Op) {
        self.t.ops.push(op);
    }

    /// Emits a branch with a placeholder target for [`Typer::patch`].
    fn hole(&mut self, op: Op) -> usize {
        self.emit(op);
        self.t.ops.len() - 1
    }

    /// Points the branch at `at` to the next instruction to be emitted.
    fn patch(&mut self, at: usize) {
        let target = self.t.ops.len() as u32;
        match &mut self.t.ops[at] {
            Op::Jump(t) | Op::BrFalse(_, t) | Op::BrTrue(_, t) => *t = target,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    /// One unit of fuel for what follows (a statement, or a loop's
    /// iteration check), as the reference walk spends it: joins the open
    /// run, or opens one. Statement-level branches and labels close it.
    fn spend(&mut self) {
        match self.run.map(|at| &mut self.t.ops[at]) {
            Some(Op::Spend(n)) if *n < u16::MAX => *n += 1,
            _ => {
                self.run = Some(self.t.ops.len());
                self.emit(Op::Spend(1));
            }
        }
        self.t.stmt_starts.push(self.t.ops.len() as u32);
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self, stmts: &[RStmt]) -> Typing<()> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &RStmt) -> Typing<()> {
        let Some(spec) = self.dot(s) else {
            return self.generic(s);
        };
        // Fused loop first, the typed code of the same loop after it as
        // the fall-through: an entry-check miss (range, fuel) re-runs the
        // statement with exact semantics. Its charges are its own run.
        self.run = None;
        let d = self.t.dots.len();
        self.t.dots.push(spec);
        self.emit(Op::Dot(d as u32));
        self.generic(s)?;
        self.run = None;
        self.t.dots[d].exit = self.t.ops.len() as u32;
        Ok(())
    }

    fn generic(&mut self, s: &RStmt) -> Typing<()> {
        self.spend();
        let m = self.next;
        match s {
            RStmt::Decl {
                slot,
                base,
                dims,
                init,
                ..
            } => {
                let ty = Ty::of(*base).ok_or("void-typed local")?;
                if dims.is_empty() {
                    let r = *slot as R;
                    self.locals[r as usize] = Bind::Scalar(ty, r);
                    // Declare-zero-then-initialise; the zero is only
                    // observable when the initializer reads the variable.
                    if init.as_ref().is_none_or(|e| mentions_frame(e, *slot)) {
                        let zero = match ty {
                            Ty::Float => self.const_f(0.0),
                            Ty::Int | Ty::Bool => self.const_i(0),
                        };
                        self.emit(mov(ty, r, zero));
                    }
                    if let Some(e) = init {
                        self.assign_scalar(e, ty, r)?;
                    }
                } else {
                    if init.is_some() || *slot >= u32::from(FRAME_BIT) {
                        return Err("array local with an initializer, or past slot 32768");
                    }
                    let (first, rank) = self.indices(dims)?;
                    self.emit(Op::DeclArr(*slot as u16, ty, first, rank));
                    let a = FRAME_BIT | *slot as A;
                    self.locals[*slot as usize] = Bind::Array(ty, dims.len(), a);
                }
            }
            RStmt::Assign {
                target, op, value, ..
            } => self.assign(target, *op, value)?,
            RStmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let to_else = self.branch_unless(cond)?;
                self.block(then_blk)?;
                self.run = None;
                match else_blk {
                    None => self.patch(to_else),
                    Some(else_blk) => {
                        let to_end = self.hole(Op::Jump(0));
                        self.patch(to_else);
                        self.block(else_blk)?;
                        self.run = None;
                        self.patch(to_end);
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
                    self.stmt(i)?;
                }
                self.run = None;
                let top = self.t.ops.len() as u32;
                // One fuel unit per iteration check, before the condition.
                self.spend();
                let to_end = cond.as_ref().map(|c| self.branch_unless(c)).transpose()?;
                self.block(body)?;
                if let Some(s) = step {
                    self.stmt(s)?;
                }
                self.emit(Op::Jump(top));
                self.run = None;
                if let Some(h) = to_end {
                    self.patch(h);
                }
            }
            RStmt::Expr(e, _) => match e {
                RExpr::PostIncDec { target, inc } => {
                    self.incdec(target, *inc, false)?;
                }
                other => {
                    self.expr(other, None)?;
                }
            },
            RStmt::Return => {
                self.emit(Op::Return);
                self.run = None;
            }
        }
        self.release(m);
        Ok(())
    }

    /// Evaluates a condition and branches away when it is false; the
    /// branch ends the open run.
    fn branch_unless(&mut self, cond: &RExpr) -> Typing<usize> {
        let m = self.next;
        let c = self.expr(cond, None)?;
        if c.ty != Ty::Bool {
            return Err("condition is not a bool");
        }
        self.release(m);
        self.run = None;
        Ok(self.hole(Op::BrFalse(c.r, 0)))
    }

    /// `r ← e`, coerced to the variable's type.
    fn assign_scalar(&mut self, e: &RExpr, ty: Ty, r: R) -> Typing<()> {
        let v = self.expr(e, Some((ty, r)))?;
        self.coerce_into(v, ty, r)
    }

    /// The store coercion: same type, or int into float.
    fn coerce_into(&mut self, v: Val, ty: Ty, r: R) -> Typing<()> {
        match (ty, v.ty) {
            (want, have) if want == have => {
                if v.r != r {
                    self.emit(mov(ty, r, v.r));
                }
            }
            (Ty::Float, Ty::Int) => {
                let p = self.promote(v, Some((ty, r)))?;
                if p.r != r {
                    self.emit(Op::MovF(r, p.r));
                }
            }
            _ => return Err("store of a value the variable's type cannot hold"),
        }
        Ok(())
    }

    /// Int → float (a literal folds); a bool is not a number.
    fn promote(&mut self, v: Val, dst: Dst) -> Typing<Val> {
        match (v.ty, v.lit) {
            (Ty::Float, _) => Ok(v),
            (Ty::Int, Some(k)) => Ok(Val::temp(Ty::Float, self.const_f(k as f64))),
            (Ty::Int, None) => {
                let d = self.out(dst, Ty::Float);
                self.emit(Op::IntToFloat(d, v.r));
                Ok(Val::temp(Ty::Float, d))
            }
            (Ty::Bool, _) => Err("bool operand where a number is needed"),
        }
    }

    /// Shields a variable operand from a `++` in what is evaluated next.
    fn settle(&mut self, v: Val, later: &[RExpr]) -> Val {
        if !(v.var && later.iter().any(has_incdec)) {
            return v;
        }
        let t = self.temp();
        self.emit(mov(v.ty, t, v.r));
        Val::temp(v.ty, t)
    }

    fn assign(&mut self, target: &RLValue, op: Option<BinOp>, value: &RExpr) -> Typing<()> {
        let m = self.next;
        match target {
            RLValue::Var(slot) => {
                let Some(op) = op else {
                    let (ty, r) = self.scalar(*slot, true)?;
                    return self.assign_scalar(value, ty, r);
                };
                // The right-hand side evaluates before the variable is read.
                let rhs = self.expr(value, None)?;
                let (ty, r) = self.scalar(*slot, true)?;
                let cur = Val {
                    var: true,
                    ..Val::temp(ty, r)
                };
                let next = self.binary(op, cur, rhs, Some((ty, r)), m)?;
                self.coerce_into(next, ty, r)
            }
            RLValue::Index(slot, idx) => {
                // Right-hand side, then the indices (once), then the element.
                let rhs = self.expr(value, None)?;
                let rhs = self.settle(rhs, idx);
                let (ty, a) = self.array(*slot, idx.len())?;
                let ix = self.indices(idx)?;
                let v = match op {
                    None => rhs,
                    Some(op) => {
                        let cur = self.temp();
                        self.emit(Op::Load(ty, cur, a, ix.0, ix.1));
                        // Operands stay live: the indices are read again.
                        let keep = self.next;
                        self.binary(op, Val::temp(ty, cur), rhs, None, keep)?
                    }
                };
                let v = match (ty, v.ty) {
                    (want, have) if want == have => v,
                    (Ty::Float, Ty::Int) => self.promote(v, None)?,
                    _ => return Err("store of a value the element type cannot hold"),
                };
                self.emit(Op::Store(ty, a, ix.0, ix.1, v.r));
                Ok(())
            }
        }
    }

    /// `++`/`--`: one evaluation of the target's indices; the value is the
    /// one before the step.
    fn incdec(&mut self, target: &RLValue, inc: bool, want_old: bool) -> Typing<Val> {
        match target {
            RLValue::Var(slot) => {
                let (ty, r) = self.scalar(*slot, true)?;
                let mut old = Val::temp(ty, r);
                if want_old {
                    old.r = self.temp();
                    self.emit(mov(ty, old.r, r));
                }
                self.step(ty, r, r, inc)?;
                Ok(old)
            }
            RLValue::Index(slot, idx) => {
                let (ty, a) = self.array(*slot, idx.len())?;
                let old = self.temp();
                let m = self.next;
                let ix = self.indices(idx)?;
                self.emit(Op::Load(ty, old, a, ix.0, ix.1));
                let next = self.temp();
                self.step(ty, next, old, inc)?;
                self.emit(Op::Store(ty, a, ix.0, ix.1, next));
                self.release(m);
                Ok(Val::temp(ty, old))
            }
        }
    }

    /// `d ← s ± 1` in the type of `s`.
    fn step(&mut self, ty: Ty, d: R, s: R, inc: bool) -> Typing<()> {
        let op = match (ty, inc) {
            (Ty::Int, true) => Op::AddI(d, s, self.const_i(1)),
            (Ty::Int, false) => Op::SubI(d, s, self.const_i(1)),
            (Ty::Float, true) => Op::AddF(d, s, self.const_f(1.0)),
            (Ty::Float, false) => Op::SubF(d, s, self.const_f(1.0)),
            (Ty::Bool, _) => return Err("`++`/`--` on a bool"),
        };
        self.emit(op);
        Ok(())
    }

    // ---- expressions ----------------------------------------------------

    /// Index (or size) expressions as `(first register, rank)`: one index
    /// stays where it is, several are gathered in consecutive
    /// temporaries. Each is validated as it is produced (the tree-walker's
    /// interleaved `eval(e)?.as_index()?`): the last by the access itself,
    /// an earlier one by a `CheckIdx` unless nothing can happen in between.
    fn indices(&mut self, idx: &[RExpr]) -> Typing<(R, u8)> {
        if let [only] = idx {
            return Ok((self.index(only, None)?.r, 1));
        }
        if idx.is_empty() || idx.len() > MAX_RANK {
            return Err("array rank outside 1..=4");
        }
        let regs: Vec<R> = idx.iter().map(|_| self.temp()).collect();
        for (k, e) in idx.iter().enumerate() {
            let m = self.next;
            let v = self.index(e, Some((Ty::Int, regs[k])))?;
            if v.r != regs[k] {
                self.emit(Op::MovI(regs[k], v.r));
            }
            self.release(m);
            let inert = |e: &RExpr| matches!(e, RExpr::Int(_) | RExpr::Var(_));
            if !idx[k + 1..].iter().all(inert) {
                self.emit(Op::CheckIdx(regs[k]));
            }
        }
        Ok((regs[0], idx.len() as u8))
    }

    fn index(&mut self, e: &RExpr, dst: Dst) -> Typing<Val> {
        let v = self.expr(e, dst)?;
        if v.ty != Ty::Int {
            return Err("index or size is not an int");
        }
        Ok(v)
    }

    /// A typed binary operation on evaluated operands: promotions first,
    /// then the temporaries above `m` are released and the result is
    /// written (the destination may be an operand).
    fn binary(&mut self, op: BinOp, a: Val, b: Val, dst: Dst, m: u32) -> Typing<Val> {
        use Ty::{Bool, Float, Int};
        let (int, float, ty) = opcodes(op);
        let (mk, ty, a, b) = match (a.ty, b.ty) {
            (Int, Int) => (int, ty, a, b),
            (Bool, Bool) if matches!(op, BinOp::Eq | BinOp::Ne) => (int, ty, a, b),
            (Bool, _) | (_, Bool) => return Err("bool operand to arithmetic"),
            (Int | Float, Int | Float) => {
                let ty = if ty == Int { Float } else { ty };
                (float, ty, self.promote(a, None)?, self.promote(b, None)?)
            }
        };
        let mk = mk.ok_or("operator not defined on its operand types")?;
        self.release(m);
        let d = self.out(dst, ty);
        self.emit(mk(d, a.r, b.r));
        Ok(Val::temp(ty, d))
    }

    /// `d ← e`, which must be a bool.
    fn bool_into(&mut self, e: &RExpr, d: R) -> Typing<()> {
        let m = self.next;
        let v = self.expr(e, Some((Ty::Bool, d)))?;
        if v.ty != Ty::Bool {
            return Err("`&&`/`||` operand is not a bool");
        }
        if v.r != d {
            self.emit(Op::MovI(d, v.r));
        }
        self.release(m);
        Ok(())
    }

    fn expr(&mut self, e: &RExpr, dst: Dst) -> Typing<Val> {
        let m = self.next;
        Ok(match e {
            RExpr::Int(v) => self.lit_i(*v),
            RExpr::Float(v) => Val::temp(Ty::Float, self.const_f(*v)),
            RExpr::Bool(v) => Val::temp(Ty::Bool, self.const_i(i64::from(*v))),
            RExpr::Var(slot) => {
                let (ty, r) = self.scalar(*slot, false)?;
                Val {
                    var: true,
                    ..Val::temp(ty, r)
                }
            }
            RExpr::Index(slot, idx) => {
                let (ty, a) = self.array(*slot, idx.len())?;
                let ix = self.indices(idx)?;
                self.release(m);
                let d = self.out(dst, ty);
                self.emit(Op::Load(ty, d, a, ix.0, ix.1));
                Val::temp(ty, d)
            }
            RExpr::Unary(op, a) => {
                let v = self.expr(a, None)?;
                let (mk, ty): (fn(R, R) -> Op, Ty) = match (op, v.ty, v.lit) {
                    (UnOp::Neg, Ty::Int, Some(k)) => return Ok(self.lit_i(k.wrapping_neg())),
                    (UnOp::Neg, Ty::Int, None) => (Op::NegI, Ty::Int),
                    (UnOp::Neg, Ty::Float, _) => (Op::NegF, Ty::Float),
                    (UnOp::Not, Ty::Bool, _) => (Op::NotB, Ty::Bool),
                    _ => return Err("unary operator not defined on its operand type"),
                };
                self.release(m);
                let d = self.out(dst, ty);
                self.emit(mk(d, v.r));
                Val::temp(ty, d)
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short circuit. The result is a temporary of its own: the
                // right operand may still read the destination variable.
                let d = self.temp();
                self.bool_into(a, d)?;
                let end = self.hole(match op {
                    BinOp::And => Op::BrFalse(d, 0),
                    _ => Op::BrTrue(d, 0),
                });
                self.bool_into(b, d)?;
                self.patch(end);
                Val::temp(Ty::Bool, d)
            }
            RExpr::Binary(op, a, b) => {
                let va = self.expr(a, None)?;
                let va = self.settle(va, std::slice::from_ref(b));
                let vb = self.expr(b, None)?;
                self.binary(*op, va, vb, dst, m)?
            }
            RExpr::Peek(i) => {
                let i = self.index(i, None)?;
                self.release(m);
                let d = self.out(dst, Ty::Float);
                self.emit(Op::Peek(d, i.r));
                Val::temp(Ty::Float, d)
            }
            RExpr::Pop => {
                let d = self.out(dst, Ty::Float);
                self.emit(Op::Pop(d));
                Val::temp(Ty::Float, d)
            }
            RExpr::Push(v) => {
                let v = self.expr(v, None)?;
                let v = self.promote(v, None)?;
                self.emit(Op::Push(v.r));
                self.release(m);
                // `push` has no value; 0 keeps it harmless in expression
                // position.
                self.lit_i(0)
            }
            RExpr::Print { newline, arg } => {
                let v = self.expr(arg, None)?;
                self.emit(Op::Print(v.ty, v.r, *newline));
                self.release(m);
                self.lit_i(0)
            }
            RExpr::Math(f, args) => self.math(*f, args, dst, m)?,
            RExpr::PostIncDec { target, inc } => self.incdec(target, *inc, true)?,
        })
    }

    fn math(&mut self, f: MathFn, args: &[RExpr], dst: Dst, m: u32) -> Typing<Val> {
        let mut vals = [Val::temp(Ty::Int, 0); 2];
        if args.len() != f.arity() {
            return Err("intrinsic called with the wrong number of arguments");
        }
        for (k, a) in args.iter().enumerate() {
            let v = self.expr(a, None)?;
            vals[k] = self.settle(v, &args[k + 1..]);
        }
        let (x, y) = (vals[0], vals[1]);
        // `abs`, `min` and `max` stay integral on integers.
        let ints = vals[..args.len()].iter().all(|v| v.ty == Ty::Int);
        if ints && matches!(f, MathFn::Abs | MathFn::Min | MathFn::Max) {
            self.release(m);
            let d = self.out(dst, Ty::Int);
            self.emit(match f {
                MathFn::Abs => Op::AbsI(d, x.r),
                MathFn::Min => Op::MinI(d, x.r, y.r),
                _ => Op::MaxI(d, x.r, y.r),
            });
            return Ok(Val::temp(Ty::Int, d));
        }
        let x = self.promote(x, None)?;
        let y = match args.len() {
            2 => Some(self.promote(y, None)?),
            _ => None,
        };
        self.release(m);
        let d = self.out(dst, Ty::Float);
        self.emit(match y {
            None => Op::Math1(d, x.r, f),
            Some(y) => Op::Math2(d, x.r, y.r, f),
        });
        Ok(Val::temp(Ty::Float, d))
    }

    // ---- the fused dot-product loop ---------------------------------------

    /// The fused form of `s` when it is `for (int v = lo; v < hi; v++)
    /// acc += a * b` — a shape in which the loop writes nothing but `v` and
    /// `acc`, so single reads of the bounds and of a `peek(s)` index are
    /// exact — and the typer can prove the operand types: int bounds, a
    /// float accumulator, float rank-1 arrays, int tape indices.
    fn dot(&mut self, s: &RStmt) -> Option<DotSpec> {
        let RStmt::For {
            init: Some(init),
            cond: Some(RExpr::Binary(BinOp::Lt, cl, hi)),
            step: Some(step),
            body,
            ..
        } = s
        else {
            return None;
        };
        let RStmt::Decl {
            slot: iv,
            base: DataType::Int,
            dims,
            init: Some(lo),
            ..
        } = &**init
        else {
            return None;
        };
        let [RStmt::Assign {
            target: RLValue::Var(acc),
            op: Some(BinOp::Add),
            value: RExpr::Binary(BinOp::Mul, a, b),
            ..
        }] = body.as_slice()
        else {
            return None;
        };
        let counter = Slot::Frame(*iv);
        let counts_up = match &**step {
            RStmt::Expr(RExpr::PostIncDec { target, inc: true }, _) => target,
            RStmt::Assign {
                target,
                op: Some(BinOp::Add),
                value: RExpr::Int(1),
                ..
            } => target,
            _ => return None,
        } == &RLValue::Var(counter);
        if !counts_up || !dims.is_empty() || **cl != RExpr::Var(counter) || *acc == counter {
            return None;
        }
        let (lo, hi) = (self.dot_int(lo, counter)?, self.dot_int(hi, counter)?);
        let (Ty::Float, acc) = self.scalar(*acc, true).ok()? else {
            return None;
        };
        Some(DotSpec {
            iv: *iv as R,
            lo,
            hi,
            acc,
            a: self.dot_operand(a, counter)?,
            b: self.dot_operand(b, counter)?,
            exit: 0, // patched once the typed fallback is laid out
        })
    }

    /// A literal, or a variable other than the counter (whose freshly
    /// declared slot cannot bound its own loop), as an int register.
    fn dot_int(&mut self, e: &RExpr, counter: Slot) -> Option<R> {
        let invariant = match e {
            RExpr::Int(_) => true,
            RExpr::Var(s) => *s != counter,
            _ => false,
        };
        let v = invariant.then(|| self.expr(e, None).ok())??;
        (v.ty == Ty::Int).then_some(v.r)
    }

    fn dot_operand(&mut self, e: &RExpr, counter: Slot) -> Option<DotOperand> {
        match e {
            RExpr::Index(slot, idx) if idx.as_slice() == [RExpr::Var(counter)] => {
                match self.array(*slot, 1).ok()? {
                    (Ty::Float, a) => Some(DotOperand::Arr(a)),
                    _ => None,
                }
            }
            RExpr::Peek(i) if **i == RExpr::Var(counter) => Some(DotOperand::PeekIv),
            RExpr::Peek(i) => self.dot_int(i, counter).map(DotOperand::PeekAt),
            _ => None,
        }
    }
}
