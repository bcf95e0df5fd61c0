//! A statically typed register bytecode for lowered work functions.
//!
//! StreamIt is statically typed, and by the time a body is lowered every
//! operand's type is decidable: [`crate::lower::lower_filter`] holds the
//! instance's state cells, so each global's type and rank is known; every
//! [`RStmt::Decl`] carries its base type, and frame-slot reuse is lexical,
//! so a slot has one type wherever it is live. [`compile`] therefore
//! resolves types **once**, and [`exec`] never looks at a tag on the
//! arithmetic path:
//!
//! * **Monomorphic three-address opcodes** (`AddF`/`AddI`/`LtI`/…) over two
//!   register files, `f64` and `i64` (booleans live in the int file as
//!   0/1). The int→float promotion and the store coercion are explicit
//!   ops (`IntToFloat`), emitted only where the typer proves them needed;
//!   conditions and indices are typed registers, so nothing converts a
//!   value to a boolean or an index at run time (the negative-index and
//!   bounds errors stay).
//! * **Scalars live in registers.** Locals never touch the frame; the
//!   scalar globals a phase mentions are loaded into registers when it is
//!   bound to a store ([`ByteCode::bind`], once per batch of firings) —
//!   the one place their cells' tags are looked at — and the ones it may
//!   write are stored back when the binding ends, on every exit. Literals
//!   are preloaded registers. Arrays stay in their cells and are read and
//!   written through one tag check per element.
//! * **FLOP tallies are decided at compile time**: a float opcode calls
//!   the [`Host`] counting hook of its family, an int opcode does not —
//!   the reference walk's rule (an operation counts when an operand is a
//!   float) without the run-time test.
//! * **Fuel is charged per run of statements**: one `Spend(n)` covers `n`
//!   statements that execute back to back. A run that cannot afford its
//!   whole charge is cut off at the statement the reference would have
//!   stopped at, so fuel runs out at the same logical point with the same
//!   partial state.
//!
//! Semantics are **bit-identical** to the reference tier, the abstract
//! walker under its concrete domain ([`crate::absint::exec`]): same
//! evaluation order (right-hand sides before assignment indices, one
//! index evaluation under `op=`/`++`, short-circuit `&&`/`||`), same
//! arithmetic (the shared [`MathFn`] kernels, wrapping integer ops), same
//! tallies, same error text, same partial state on failure. The two are
//! written independently, and `tests/interp_differential.rs`,
//! `tests/typed_bytecode.rs` (fuel sweeps and faults) and
//! `tests/graph_fuzz.rs` pin that.
//!
//! The executor **never trusts the store**. What can only fail at run time
//! for a type reason — a bool operand to arithmetic, a float stored into
//! an int, a float index — makes the typer *refuse* the phase, and a store
//! whose cells disagree with the compiled signature fails the entry check;
//! either way the phase runs on the reference tier, which gives the
//! reference error text and partial state by definition. There is no third
//! executor.
//!
//! On top of the typed opcodes the compiler fuses the benchmarks' dominant
//! loop, `for (int v = lo; v < hi; v++) acc += a * b`, into one
//! [`Op::Dot`] that runs natively over array storage and the tape. Its
//! operand types are proven by the typer; what depends on values (ranges,
//! fuel headroom) is checked at entry, and a miss falls through to the
//! typed code of the same loop. Summation stays strictly left to right.

use std::sync::Arc;

use streamlin_lang::ast::DataType;

use crate::exec::{Flow, Host};
use crate::lower::{RStmt, SlotStore};
use crate::value::{Cell, EvalError, MathFn};

mod typer;
mod vm;

pub use vm::Regs;

/// A register index, into the file the opcode names.
type R = u16;
/// An array reference: a global slot, or [`FRAME_BIT`] plus a frame slot.
type A = u16;
const FRAME_BIT: A = 0x8000;
/// Deepest array the typed tier indexes (deeper ones run on the reference
/// tier); index registers are gathered on the executor's stack.
const MAX_RANK: usize = 4;

/// The scalar types of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Float,
    Bool,
}

impl Ty {
    /// `None` for `void`, which no value has.
    fn of(dt: DataType) -> Option<Ty> {
        match dt {
            DataType::Int => Some(Ty::Int),
            DataType::Float => Some(Ty::Float),
            DataType::Bool => Some(Ty::Bool),
            DataType::Void => None,
        }
    }

    fn data_type(self) -> DataType {
        match self {
            Ty::Int => DataType::Int,
            Ty::Float => DataType::Float,
            Ty::Bool => DataType::Bool,
        }
    }
}

/// One typed instruction. `F` opcodes read and write the float file, `I`
/// opcodes the int file; destination first, `u32` operands are jump
/// targets. Twelve bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Charge fuel for the next `n` statements, which run back to back.
    Spend(u16),
    MovF(R, R),
    MovI(R, R),
    /// Float register ← int register (promotion, store coercion).
    IntToFloat(R, R),
    AddF(R, R, R),
    SubF(R, R, R),
    MulF(R, R, R),
    DivF(R, R, R),
    RemF(R, R, R),
    NegF(R, R),
    /// Float comparisons write 0/1 to the int file.
    EqF(R, R, R),
    NeF(R, R, R),
    LtF(R, R, R),
    GtF(R, R, R),
    LeF(R, R, R),
    GeF(R, R, R),
    AddI(R, R, R),
    SubI(R, R, R),
    MulI(R, R, R),
    DivI(R, R, R),
    RemI(R, R, R),
    AndI(R, R, R),
    OrI(R, R, R),
    XorI(R, R, R),
    ShlI(R, R, R),
    ShrI(R, R, R),
    NegI(R, R),
    EqI(R, R, R),
    NeI(R, R, R),
    LtI(R, R, R),
    GtI(R, R, R),
    LeI(R, R, R),
    GeI(R, R, R),
    NotB(R, R),
    /// Float intrinsics (one "other" FP operation each).
    Math1(R, R, MathFn),
    Math2(R, R, R, MathFn),
    AbsI(R, R),
    MinI(R, R, R),
    MaxI(R, R, R),
    /// Float register ← `peek(int register)`.
    Peek(R, R),
    Pop(R),
    Push(R),
    /// `print`/`println` of a register of the type's file.
    Print(Ty, R, bool),
    /// Element load: type (which file the destination is in), destination,
    /// array, first of `rank` consecutive index registers, rank.
    Load(Ty, R, A, R, u8),
    /// Element store: type, array, first index register, rank, value.
    Store(Ty, A, R, u8, R),
    /// Fails on a negative index *now*, where a later index expression
    /// could fail or write first.
    CheckIdx(R),
    /// Install a fresh zeroed array in a frame slot: slot, element type,
    /// first of `rank` consecutive size registers, rank.
    DeclArr(u16, Ty, R, u8),
    Jump(u32),
    BrFalse(R, u32),
    BrTrue(R, u32),
    Return,
    /// Fused dot-product loop (index into `Typed::dots`): jumps to the
    /// spec's `exit` when it ran, falls through into the typed code of the
    /// same loop when an entry check fails.
    Dot(u32),
}

const _: () = assert!(std::mem::size_of::<Op>() <= 12);

/// One multiplicand of a fused dot-product loop body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DotOperand {
    /// `arr[v]` — a one-dimensional float array at the counter.
    Arr(A),
    /// `peek(v)` — the tape at the counter.
    PeekIv,
    /// `peek(s)` — the tape at a loop-invariant int register (the loop
    /// writes only the counter and the float accumulator).
    PeekAt(R),
}

/// A fused `for (int v = lo; v < hi; v++) acc += a * b`, every operand
/// resolved to a register or an array of proven type.
#[derive(Debug, Clone, PartialEq)]
struct DotSpec {
    /// Counter (int file).
    iv: R,
    /// Initial value and exclusive bound (int file).
    lo: R,
    hi: R,
    /// Accumulator (float file).
    acc: R,
    a: DotOperand,
    b: DotOperand,
    /// Jump target past the typed fallback.
    exit: u32,
}

/// A scalar global the phase keeps in a register for the firing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GlobalScalar {
    slot: u32,
    ty: Ty,
    reg: R,
    /// Stored back when the firing ends.
    written: bool,
}

/// The typed program of one phase.
#[derive(Debug, Clone, PartialEq, Default)]
struct Typed {
    ops: Vec<Op>,
    /// The pc every statement starts at, ascending: where a run that
    /// cannot afford its `Spend` is cut off.
    stmt_starts: Vec<u32>,
    dots: Vec<DotSpec>,
    /// Registers needed, in each file.
    regs: usize,
    /// Literals, preloaded at entry: register, whether it is a float, and
    /// the bits of the `f64` or `i64`.
    consts: Vec<(R, bool, u64)>,
    /// The compiled signature: what the store must hold for this code.
    scalars: Vec<GlobalScalar>,
    /// `(global slot, element type, rank)` of every global array touched.
    arrays: Vec<(u32, Ty, usize)>,
}

/// A compiled work phase: the typed program, or the reason the typer
/// refused the body, plus the body itself for the reference tier.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ByteCode {
    body: Arc<[RStmt]>,
    typed: Typed,
    refusal: Option<&'static str>,
}

impl ByteCode {
    /// Number of instructions (zero for a refused body).
    pub fn len(&self) -> usize {
        self.typed.ops.len()
    }

    /// True when the phase compiled to no instructions.
    pub fn is_empty(&self) -> bool {
        self.typed.ops.is_empty()
    }

    /// Why the typer refused this body (it then runs on the reference
    /// tier, [`crate::absint::exec`]); `None` when it compiled.
    pub fn refusal(&self) -> Option<&'static str> {
        self.refusal
    }
}

/// Types and flattens a lowered body against its globals' cells (slot
/// order), whose types and ranks are the signature it is compiled for.
/// Infallible: a body the typer cannot prove well typed is kept as is and
/// carries the [`ByteCode::refusal`].
pub fn compile(body: Arc<[RStmt]>, globals: &[&Cell], frame_slots: usize) -> ByteCode {
    let (typed, refusal) = match typer::compile(&body, globals, frame_slots) {
        Ok(typed) => (typed, None),
        Err(why) => (Typed::default(), Some(why)),
    };
    ByteCode {
        body,
        typed,
        refusal,
    }
}

/// Executes a compiled work phase over slot storage, driving the same
/// [`Host`] protocol (tape access, printing, FLOP tallies) and the same
/// fuel discipline as the reference tier ([`crate::absint::exec`]), on
/// fresh registers.
///
/// # Errors
///
/// Propagates any [`EvalError`], with messages identical to the
/// reference tier's (the differential suites compare failure text too).
pub fn exec<H: Host>(
    code: &ByteCode,
    store: &mut SlotStore<'_>,
    host: &mut H,
    fuel: u64,
) -> Result<Flow, EvalError> {
    code.bind(store, &mut Regs::default(), true)
        .fire(host, fuel)
}

/// A phase bound to a store for a run of firings: the scalar globals it
/// mentions sit in registers from [`ByteCode::bind`] until the value is
/// dropped, which stores the written ones back — after a failed firing
/// too. Nothing else can touch the store in between: the binding holds it.
#[derive(Debug)]
pub struct Bound<'a, 's> {
    code: &'a ByteCode,
    store: &'a mut SlotStore<'s>,
    regs: &'a mut Regs,
    /// The store matches the compiled signature: firings run typed.
    typed: bool,
}

impl ByteCode {
    /// Binds the phase to `store` over caller-owned registers, so that a
    /// firing allocates nothing once they have grown to the phase's size.
    /// With `typed` unset (`--tier treewalk`), for a refused body, and for
    /// a store whose cells do not match the compiled signature, the
    /// binding is to the reference tier: every firing walks the body.
    pub fn bind<'a, 's>(
        &'a self,
        store: &'a mut SlotStore<'s>,
        regs: &'a mut Regs,
        typed: bool,
    ) -> Bound<'a, 's> {
        let typed = typed && self.refusal.is_none() && vm::enter(&self.typed, store, regs);
        Bound {
            code: self,
            store,
            regs,
            typed,
        }
    }
}

impl Bound<'_, '_> {
    /// Runs one firing.
    ///
    /// # Errors
    ///
    /// As [`exec`].
    pub fn fire<H: Host>(&mut self, host: &mut H, fuel: u64) -> Result<Flow, EvalError> {
        match self.typed {
            true => vm::run(&self.code.typed, self.store, self.regs, host, fuel),
            false => crate::absint::exec(&self.code.body, self.store, host, fuel),
        }
    }
}

impl Drop for Bound<'_, '_> {
    fn drop(&mut self) {
        if self.typed {
            vm::leave(&self.code.typed, self.store, self.regs);
        }
    }
}
