//! The executor: register files, the entry check against the compiled
//! signature, one dispatch loop, and the fused dot-product loop.

use streamlin_lang::ast::DataType;

use super::{DotOperand, DotSpec, Op, Ty, Typed, A, FRAME_BIT, MAX_RANK};
use crate::exec::{Flow, Host};
use crate::lower::SlotStore;
use crate::value::{flat_offset, ArrayVal, Cell, EvalError, Value};

/// Register files and counters a caller keeps between firings, so the
/// executor allocates nothing once they have grown to a phase's size.
#[derive(Debug, Clone, Default)]
pub struct Regs {
    f: Vec<f64>,
    i: Vec<i64>,
    /// Fused dot-product loops that ran natively.
    pub dot_runs: u64,
    /// Fused loops whose entry check failed (range, fuel): the typed code
    /// of the same loop ran instead.
    pub dot_bails: u64,
}

/// Loads literals and the phase's scalar globals into registers and checks
/// every global it touches against the compiled signature. `false` (the
/// store holds something else) means nothing has run; the caller falls
/// back to the reference tier.
pub(super) fn enter(t: &Typed, store: &SlotStore<'_>, regs: &mut Regs) -> bool {
    if regs.f.len() < t.regs {
        regs.f.resize(t.regs, 0.0);
        regs.i.resize(t.regs, 0);
    }
    for &(r, float, bits) in &t.consts {
        match float {
            true => regs.f[r as usize] = f64::from_bits(bits),
            false => regs.i[r as usize] = bits as i64,
        }
    }
    for s in &t.scalars {
        let r = s.reg as usize;
        match (store.globals.get(s.slot as usize), s.ty) {
            (Some(Cell::Scalar(DataType::Float, Value::Float(v))), Ty::Float) => regs.f[r] = *v,
            (Some(Cell::Scalar(DataType::Int, Value::Int(v))), Ty::Int) => regs.i[r] = *v,
            (Some(Cell::Scalar(DataType::Bool, Value::Bool(v))), Ty::Bool) => {
                regs.i[r] = i64::from(*v);
            }
            _ => return false,
        }
    }
    t.arrays.iter().all(|&(g, ty, rank)| {
        matches!(store.globals.get(g as usize),
            Some(Cell::Array(a)) if a.elem == ty.data_type() && a.dims.len() == rank)
    })
}

/// Stores the scalar globals the phase may have written back to their
/// cells — after a failed firing too: partial state is part of the
/// contract.
pub(super) fn leave(t: &Typed, store: &mut SlotStore<'_>, regs: &Regs) {
    for s in t.scalars.iter().filter(|s| s.written) {
        // A scalar cell: checked at entry, and the binding held the store.
        let Some(Cell::Scalar(_, v)) = store.globals.get_mut(s.slot as usize) else {
            continue;
        };
        *v = match s.ty {
            Ty::Float => Value::Float(regs.f[s.reg as usize]),
            Ty::Int => Value::Int(regs.i[s.reg as usize]),
            Ty::Bool => Value::Bool(regs.i[s.reg as usize] != 0),
        };
    }
}

#[cold]
fn out_of_fuel() -> EvalError {
    EvalError::new("execution fuel exhausted (possible infinite loop)")
}

/// An element (or a frame cell) that contradicts what the typer proved
/// about it: only a store corrupted from outside can hold one.
#[cold]
fn corrupt() -> EvalError {
    EvalError::new("array storage does not match its declared type")
}

/// `Value::as_index` on an int register.
#[inline(always)]
fn index(v: i64) -> Result<usize, EvalError> {
    usize::try_from(v)
        .map_err(|_| EvalError::new(format!("expected a non-negative integer, found {v}")))
}

#[inline(always)]
fn array<'a>(store: &'a SlotStore<'_>, a: A) -> Result<&'a ArrayVal, EvalError> {
    let cell = match a & FRAME_BIT {
        0 => store.globals.get(a as usize),
        _ => store.frame.get((a & !FRAME_BIT) as usize),
    };
    match cell {
        Some(Cell::Array(arr)) => Ok(arr),
        _ => Err(corrupt()),
    }
}

#[inline(always)]
fn array_mut<'a>(store: &'a mut SlotStore<'_>, a: A) -> Result<&'a mut ArrayVal, EvalError> {
    let cell = match a & FRAME_BIT {
        0 => store.globals.get_mut(a as usize),
        _ => store.frame.get_mut((a & !FRAME_BIT) as usize),
    };
    match cell {
        Some(Cell::Array(arr)) => Ok(arr),
        _ => Err(corrupt()),
    }
}

/// Index registers validated in order (`as_index` each), then the
/// row-major offset with the shared rank and bounds errors.
#[inline(always)]
fn offset(arr: &ArrayVal, regs: &[i64]) -> Result<usize, EvalError> {
    let mut idx = [0; MAX_RANK];
    for (slot, v) in idx.iter_mut().zip(regs) {
        *slot = index(*v)?;
    }
    flat_offset(&arr.dims, &idx[..regs.len()])
}

/// Runs a typed program to completion, an error, or the statement its
/// fuel runs out at.
pub(super) fn run<H: Host>(
    t: &Typed,
    store: &mut SlotStore<'_>,
    regs: &mut Regs,
    host: &mut H,
    mut fuel: u64,
) -> Result<Flow, EvalError> {
    let Regs {
        f,
        i,
        dot_runs,
        dot_bails,
    } = regs;
    let (f, i) = (&mut f[..], &mut i[..]);
    macro_rules! float {
        ($count:ident, $d:expr, |$x:ident = $a:ident, $y:ident = $b:ident| $e:expr) => {{
            host.$count();
            let ($x, $y) = (f[$a as usize], f[$b as usize]);
            $d = $e;
        }};
    }
    macro_rules! int {
        ($d:ident, |$x:ident = $a:ident, $y:ident = $b:ident| $e:expr) => {{
            let ($x, $y) = (i[$a as usize], i[$b as usize]);
            i[$d as usize] = $e;
        }};
    }
    let mut ops = &t.ops[..];
    let mut starved = false;
    let mut pc = 0usize;
    while let Some(&op) = ops.get(pc) {
        pc += 1;
        match op {
            Op::Spend(n) => {
                let n = u64::from(n);
                if fuel >= n {
                    fuel -= n;
                } else {
                    // The run cannot afford its whole charge: cut the
                    // program off where its `fuel + 1`-th statement
                    // starts. Everything before it is straight-line, so
                    // execution gets exactly there (or fails, or returns,
                    // earlier — as the tree-walker would).
                    let first = t.stmt_starts.partition_point(|&s| (s as usize) < pc);
                    ops = &ops[..t.stmt_starts[first + fuel as usize] as usize];
                    (fuel, starved) = (0, true);
                }
            }
            Op::MovF(d, s) => f[d as usize] = f[s as usize],
            Op::MovI(d, s) => i[d as usize] = i[s as usize],
            Op::IntToFloat(d, s) => f[d as usize] = i[s as usize] as f64,
            Op::AddF(d, a, b) => float!(count_add, f[d as usize], |x = a, y = b| x + y),
            Op::SubF(d, a, b) => float!(count_add, f[d as usize], |x = a, y = b| x - y),
            Op::MulF(d, a, b) => float!(count_mul, f[d as usize], |x = a, y = b| x * y),
            Op::DivF(d, a, b) => float!(count_div, f[d as usize], |x = a, y = b| x / y),
            Op::RemF(d, a, b) => float!(count_other, f[d as usize], |x = a, y = b| x % y), // fprem
            Op::NegF(d, a) => {
                host.count_other(); // fchs
                f[d as usize] = -f[a as usize];
            }
            // fcom
            Op::EqF(d, a, b) => {
                float!(count_other, i[d as usize], |x = a, y = b| i64::from(x == y))
            }
            Op::NeF(d, a, b) => {
                float!(count_other, i[d as usize], |x = a, y = b| i64::from(x != y))
            }
            Op::LtF(d, a, b) => float!(count_other, i[d as usize], |x = a, y = b| i64::from(x < y)),
            Op::GtF(d, a, b) => float!(count_other, i[d as usize], |x = a, y = b| i64::from(x > y)),
            Op::LeF(d, a, b) => {
                float!(count_other, i[d as usize], |x = a, y = b| i64::from(x <= y))
            }
            Op::GeF(d, a, b) => {
                float!(count_other, i[d as usize], |x = a, y = b| i64::from(x >= y))
            }
            Op::AddI(d, a, b) => int!(d, |x = a, y = b| x.wrapping_add(y)),
            Op::SubI(d, a, b) => int!(d, |x = a, y = b| x.wrapping_sub(y)),
            Op::MulI(d, a, b) => int!(d, |x = a, y = b| x.wrapping_mul(y)),
            Op::DivI(d, a, b) => int!(d, |x = a, y = b| match y {
                0 => return Err(EvalError::new("integer division by zero")),
                _ => x.wrapping_div(y),
            }),
            Op::RemI(d, a, b) => int!(d, |x = a, y = b| match y {
                0 => return Err(EvalError::new("integer remainder by zero")),
                _ => x.wrapping_rem(y),
            }),
            Op::AndI(d, a, b) => int!(d, |x = a, y = b| x & y),
            Op::OrI(d, a, b) => int!(d, |x = a, y = b| x | y),
            Op::XorI(d, a, b) => int!(d, |x = a, y = b| x ^ y),
            Op::ShlI(d, a, b) => int!(d, |x = a, y = b| x.checked_shl(y as u32).unwrap_or(0)),
            Op::ShrI(d, a, b) => int!(d, |x = a, y = b| x.checked_shr(y as u32).unwrap_or(0)),
            Op::NegI(d, a) => i[d as usize] = -i[a as usize],
            Op::EqI(d, a, b) => int!(d, |x = a, y = b| i64::from(x == y)),
            Op::NeI(d, a, b) => int!(d, |x = a, y = b| i64::from(x != y)),
            Op::LtI(d, a, b) => int!(d, |x = a, y = b| i64::from(x < y)),
            Op::GtI(d, a, b) => int!(d, |x = a, y = b| i64::from(x > y)),
            Op::LeI(d, a, b) => int!(d, |x = a, y = b| i64::from(x <= y)),
            Op::GeI(d, a, b) => int!(d, |x = a, y = b| i64::from(x >= y)),
            Op::NotB(d, a) => i[d as usize] = i64::from(i[a as usize] == 0),
            Op::Math1(d, a, func) => {
                host.count_other(); // transcendental FP instruction
                f[d as usize] = func.apply1(f[a as usize]);
            }
            Op::Math2(d, a, b, func) => {
                float!(count_other, f[d as usize], |x = a, y = b| func.apply2(x, y))
            }
            Op::AbsI(d, a) => i[d as usize] = i[a as usize].abs(),
            Op::MinI(d, a, b) => int!(d, |x = a, y = b| x.min(y)),
            Op::MaxI(d, a, b) => int!(d, |x = a, y = b| x.max(y)),
            Op::Peek(d, a) => f[d as usize] = host.peek(index(i[a as usize])?)?,
            Op::Pop(d) => f[d as usize] = host.pop()?,
            Op::Push(a) => host.push(f[a as usize])?,
            Op::Print(ty, a, newline) => {
                let v = match ty {
                    Ty::Float => Value::Float(f[a as usize]),
                    Ty::Int => Value::Int(i[a as usize]),
                    Ty::Bool => Value::Bool(i[a as usize] != 0),
                };
                host.print(v, newline)?;
            }
            // Element access through one tag check: the typer proved the
            // array's type and rank, the entry check its header; the
            // element's own tag is the part only the access can see.
            Op::Load(ty, d, a, x, rank) => {
                let arr = array(store, a)?;
                let off = offset(arr, &i[x as usize..][..rank as usize])?;
                match (ty, arr.data.get(off)) {
                    (Ty::Float, Some(Value::Float(v))) => f[d as usize] = *v,
                    (Ty::Int, Some(Value::Int(v))) => i[d as usize] = *v,
                    (Ty::Bool, Some(Value::Bool(v))) => i[d as usize] = i64::from(*v),
                    _ => return Err(corrupt()),
                }
            }
            Op::Store(ty, a, x, rank, v) => {
                let arr = array_mut(store, a)?;
                let off = offset(arr, &i[x as usize..][..rank as usize])?;
                match (ty, arr.data.get_mut(off)) {
                    (Ty::Float, Some(Value::Float(e))) => *e = f[v as usize],
                    (Ty::Int, Some(Value::Int(e))) => *e = i[v as usize],
                    (Ty::Bool, Some(Value::Bool(e))) => *e = i[v as usize] != 0,
                    _ => return Err(corrupt()),
                }
            }
            Op::CheckIdx(a) => {
                index(i[a as usize])?;
            }
            Op::DeclArr(slot, ty, x, rank) => {
                let sizes = &i[x as usize..][..rank as usize];
                let dims = sizes.iter().map(|v| index(*v)).collect::<Result<_, _>>()?;
                let cell = store.frame.get_mut(slot as usize).ok_or_else(corrupt)?;
                *cell = Cell::Array(ArrayVal::zeros(ty.data_type(), dims));
            }
            Op::Jump(to) => pc = to as usize,
            Op::BrFalse(c, to) => {
                if i[c as usize] == 0 {
                    pc = to as usize;
                }
            }
            Op::BrTrue(c, to) => {
                if i[c as usize] != 0 {
                    pc = to as usize;
                }
            }
            Op::Return => return Ok(Flow::Return),
            Op::Dot(d) => {
                let spec = &t.dots[d as usize];
                // `None` falls through into the typed loop laid after this
                // op, which re-runs the statement from scratch.
                match run_dot(spec, store, f, i, host, fuel)? {
                    Some(left) => {
                        *dot_runs += 1;
                        fuel = left;
                        pc = spec.exit as usize;
                    }
                    None => *dot_bails += 1,
                }
            }
        }
    }
    match starved {
        true => Err(out_of_fuel()),
        false => Ok(Flow::Normal),
    }
}

/// A resolved multiplicand: borrowed array contents or a tape index.
enum DotSrc<'a> {
    Arr(&'a [Value]),
    PeekIv,
    PeekAt(usize),
}

/// Resolves an operand, proving every access the loop will make is one the
/// typed code would also accept (in-range counter indices for arrays, a
/// non-negative index for the tape); `None` falls back to that code, which
/// reproduces the exact error.
fn dot_src<'a>(
    store: &'a SlotStore<'_>,
    operand: DotOperand,
    (lo, hi): (i64, i64),
    i: &[i64],
) -> Option<DotSrc<'a>> {
    let empty = lo >= hi;
    match operand {
        DotOperand::Arr(a) => {
            let arr = array(store, a).ok()?;
            let inside = lo >= 0 && hi as u64 <= arr.data.len() as u64;
            (arr.dims.len() == 1 && (empty || inside)).then_some(DotSrc::Arr(&arr.data))
        }
        // `as_index` would reject a negative counter.
        DotOperand::PeekIv => (empty || lo >= 0).then_some(DotSrc::PeekIv),
        DotOperand::PeekAt(r) => usize::try_from(i[r as usize]).ok().map(DotSrc::PeekAt),
    }
}

#[inline(always)]
fn dot_read<H: Host>(src: &DotSrc<'_>, k: i64, host: &mut H) -> Result<f64, EvalError> {
    match *src {
        DotSrc::Arr(data) => match data[k as usize] {
            Value::Float(v) => Ok(v),
            _ => Err(corrupt()),
        },
        DotSrc::PeekIv => host.peek(k as usize),
        DotSrc::PeekAt(j) => host.peek(j),
    }
}

/// The `n` reads a tape operand makes from counter `lo` on, as a slice of
/// `tape` and a stride (1 for `peek(k)`, 0 for a fixed `peek(j)`), when
/// every one is inside it. `None` for an array operand.
fn on_tape<'t>(src: &DotSrc<'_>, lo: i64, n: u64, tape: &'t [f64]) -> Option<(&'t [f64], usize)> {
    let n = usize::try_from(n).ok()?;
    match *src {
        DotSrc::Arr(_) => None,
        DotSrc::PeekIv => tape
            .get(usize::try_from(lo).ok()?..)?
            .get(..n)
            .map(|s| (s, 1)),
        DotSrc::PeekAt(j) => tape.get(j..=j).map(|s| (s, 0)),
    }
}

/// Runs a fused dot-product loop. `Ok(Some(fuel))` means it ran to
/// completion (counter and accumulator written, fuel charged exactly as
/// the typed loop would); `Ok(None)` means an entry check failed and
/// **no** state was touched. A tape error mid-loop writes the partial
/// accumulator and the counter first, matching the tree-walker's state at
/// the same failure point. Summation is strictly left to right.
fn run_dot<H: Host>(
    spec: &DotSpec,
    store: &SlotStore<'_>,
    f: &mut [f64],
    i: &mut [i64],
    host: &mut H,
    fuel: u64,
) -> Result<Option<u64>, EvalError> {
    let (lo, hi) = (i[spec.lo as usize], i[spec.hi as usize]);
    let n = if hi > lo { hi.abs_diff(lo) } else { 0 };
    // Fuel mirror of the typed loop: the `for` statement, the counter
    // declaration, one check + one body + one step per iteration, and the
    // final failed check. Short of that, let it exhaust fuel precisely.
    let Some(need) = n.checked_mul(3).and_then(|x| x.checked_add(3)) else {
        return Ok(None);
    };
    let (Some(a), Some(b)) = (
        dot_src(store, spec.a, (lo, hi), i),
        dot_src(store, spec.b, (lo, hi), i),
    ) else {
        return Ok(None);
    };
    if fuel < need {
        return Ok(None);
    }
    let mut acc = f[spec.acc as usize];
    // Both operands on the host's tape and every read inside it: sweep the
    // slice. The terms are summed and counted as the loop below does them.
    if let Some((xs, ys)) = host
        .tape()
        .and_then(|t| Some((on_tape(&a, lo, n, t)?, on_tape(&b, lo, n, t)?)))
    {
        for t in 0..n as usize {
            acc += xs.0[t * xs.1] * ys.0[t * ys.1];
        }
        for _ in 0..n {
            host.count_mul();
            host.count_add();
        }
        f[spec.acc as usize] = acc;
        i[spec.iv as usize] = lo + n as i64;
        return Ok(Some(fuel - need));
    }
    let mut k = lo;
    let end = loop {
        if k >= hi {
            break Ok(Some(fuel - need));
        }
        let x = match dot_read(&a, k, host) {
            Ok(v) => v,
            Err(e) => break Err(e),
        };
        let y = match dot_read(&b, k, host) {
            Ok(v) => v,
            Err(e) => break Err(e),
        };
        host.count_mul();
        host.count_add();
        acc += x * y;
        k += 1;
    };
    f[spec.acc as usize] = acc;
    i[spec.iv as usize] = k;
    end
}
