//! A statement/expression interpreter over the dialect AST.
//!
//! This is the **constant-context** engine: elaboration runs container
//! bodies and rate expressions through it under [`PureHost`], which
//! rejects tape operations — mirroring how the StreamIt compiler resolves
//! rates and weights at compile time (§2.1). Its environment is name-based
//! (`HashMap<String, Cell>` scopes) because those environments are
//! genuinely dynamic. Filter `init` blocks run on the bytecode tier
//! ([`crate::elaborate::run_init`]); this engine is their reference in
//! `tests/interp_differential.rs`.
//!
//! **Runtime execution** of work functions no longer goes through this
//! engine: `streamlin-runtime` executes the slot-resolved form produced by
//! [`crate::lower`], which shares this module's [`Host`] trait (tape
//! access, printing, and the DynamoRIO-substitute FLOP accounting;
//! integer index arithmetic is free, matching the paper's FLOP metric)
//! and performs byte-for-byte the same arithmetic — the differential
//! suite in `tests/interp_differential.rs` holds the two engines equal.

use std::collections::HashMap;

use streamlin_lang::ast::{BinOp, Block, Expr, LValue, Stmt, Type, UnOp};

use crate::value::{bin_op, is_math_fn, math_call, un_op, ArrayVal, Cell, EvalError, Value};

/// The environment-facing side of execution: tape access, printing, and
/// FLOP accounting. Counting hooks default to no-ops.
pub trait Host {
    /// `peek(i)`.
    fn peek(&mut self, i: usize) -> Result<f64, EvalError>;
    /// `pop()`.
    fn pop(&mut self) -> Result<f64, EvalError>;
    /// `push(v)`.
    fn push(&mut self, v: f64) -> Result<(), EvalError>;
    /// `print(v)` / `println(v)`.
    fn print(&mut self, v: Value, newline: bool) -> Result<(), EvalError>;
    /// A float add/sub was executed.
    fn count_add(&mut self) {}
    /// A float multiply was executed.
    fn count_mul(&mut self) {}
    /// A float divide was executed.
    fn count_div(&mut self) {}
    /// Another FP instruction (comparison, transcendental, negation).
    fn count_other(&mut self) {}
}

/// Host for constant contexts: all tape operations and printing fail.
#[derive(Debug, Clone, Copy, Default)]
pub struct PureHost;

impl Host for PureHost {
    fn peek(&mut self, _i: usize) -> Result<f64, EvalError> {
        Err(EvalError::new(
            "`peek` is not allowed in a constant context",
        ))
    }
    fn pop(&mut self) -> Result<f64, EvalError> {
        Err(EvalError::new("`pop` is not allowed in a constant context"))
    }
    fn push(&mut self, _v: f64) -> Result<(), EvalError> {
        Err(EvalError::new(
            "`push` is not allowed in a constant context",
        ))
    }
    fn print(&mut self, _v: Value, _nl: bool) -> Result<(), EvalError> {
        Err(EvalError::new(
            "printing is not allowed in a constant context",
        ))
    }
}

/// Lexically scoped storage: an outer map of persistent variables (fields
/// and stream parameters) plus a stack of local scopes.
#[derive(Debug)]
pub struct Env<'a> {
    globals: &'a mut HashMap<String, Cell>,
    scopes: Vec<HashMap<String, Cell>>,
}

impl<'a> Env<'a> {
    /// Creates an environment over persistent storage.
    pub fn new(globals: &'a mut HashMap<String, Cell>) -> Self {
        Env {
            globals,
            scopes: vec![HashMap::new()],
        }
    }

    /// Creates a *flat* environment: declarations go straight into the
    /// persistent map (used by container-body elaboration, where loop
    /// variables must stay visible to interleaved `add` statements).
    pub fn flat(globals: &'a mut HashMap<String, Cell>) -> Self {
        Env {
            globals,
            scopes: Vec::new(),
        }
    }

    fn push_scope(&mut self) {
        if !self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
    }

    fn pop_scope(&mut self) {
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }

    fn declare(&mut self, name: &str, cell: Cell) {
        match self.scopes.last_mut() {
            Some(scope) => {
                scope.insert(name.to_string(), cell);
            }
            None => {
                self.globals.insert(name.to_string(), cell);
            }
        }
    }

    fn lookup_mut(&mut self, name: &str) -> Result<&mut Cell, EvalError> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(c) = scope.get_mut(name) {
                return Ok(c);
            }
        }
        self.globals
            .get_mut(name)
            .ok_or_else(|| EvalError::new(format!("undefined variable `{name}`")))
    }
}

/// A small inline buffer for evaluated array indices. Benchmark arrays
/// are at most 2-D, so index evaluation never allocates; deeper shapes
/// spill to the heap. Shared with the slot-resolved interpreter in
/// [`crate::lower`].
#[derive(Debug, Default)]
pub(crate) struct IndexBuf {
    inline: [usize; 2],
    len: usize,
    spill: Vec<usize>,
}

impl IndexBuf {
    pub(crate) fn push(&mut self, i: usize) {
        if self.len < self.inline.len() {
            self.inline[self.len] = i;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(i);
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Whether a block finished normally or via `return`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fell off the end.
    Normal,
    /// Hit a `return`.
    Return,
}

/// The interpreter. `fuel` bounds the number of executed statements so that
/// accidental infinite loops in user programs surface as errors rather than
/// hangs (the paper's analysis similarly gives up on unresolvable loops).
#[derive(Debug)]
pub struct Interp<'h, H: Host> {
    host: &'h mut H,
    fuel: u64,
}

/// Default fuel: generous enough for every benchmark's `init` (the largest
/// is the 4412-element Radar setup) while still bounding runaway loops.
pub const DEFAULT_FUEL: u64 = 200_000_000;

impl<'h, H: Host> Interp<'h, H> {
    /// Creates an interpreter with the given fuel budget.
    pub fn new(host: &'h mut H, fuel: u64) -> Self {
        Interp { host, fuel }
    }

    fn spend(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::new(
                "execution fuel exhausted (possible infinite loop)",
            ));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Executes a block in a fresh scope.
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`] from the statements.
    pub fn exec_block(&mut self, env: &mut Env<'_>, block: &Block) -> Result<Flow, EvalError> {
        env.push_scope();
        let r = self.exec_stmts(env, &block.stmts);
        env.pop_scope();
        r
    }

    fn exec_stmts(&mut self, env: &mut Env<'_>, stmts: &[Stmt]) -> Result<Flow, EvalError> {
        for s in stmts {
            if self.exec_stmt(env, s)? == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, env: &mut Env<'_>, stmt: &Stmt) -> Result<Flow, EvalError> {
        self.spend()?;
        match stmt {
            Stmt::Decl { ty, name, init } => {
                let cell = self.make_cell(env, ty)?;
                env.declare(name, cell);
                if let Some(e) = init {
                    let v = self.eval(env, e)?;
                    self.assign(env, &LValue::Var(name.clone()), v)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                let rhs = self.eval(env, value)?;
                match op {
                    None => self.assign(env, target, rhs)?,
                    Some(op) => {
                        self.read_modify_write(env, target, *op, rhs)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(env, cond)?.as_bool()?;
                if c {
                    self.exec_block(env, then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(env, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.spend()?;
                    if !self.eval(env, cond)?.as_bool()? {
                        break;
                    }
                    if self.exec_block(env, body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                env.push_scope();
                let result = (|| {
                    if let Some(i) = init {
                        if self.exec_stmt(env, i)? == Flow::Return {
                            return Ok(Flow::Return);
                        }
                    }
                    loop {
                        self.spend()?;
                        let go = match cond {
                            Some(c) => self.eval(env, c)?.as_bool()?,
                            None => true,
                        };
                        if !go {
                            break;
                        }
                        if self.exec_block(env, body)? == Flow::Return {
                            return Ok(Flow::Return);
                        }
                        if let Some(s) = step {
                            if self.exec_stmt(env, s)? == Flow::Return {
                                return Ok(Flow::Return);
                            }
                        }
                    }
                    Ok(Flow::Normal)
                })();
                env.pop_scope();
                result
            }
            Stmt::Expr(e) => {
                self.eval(env, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::Add(_) => Err(EvalError::new(
                "`add` is only allowed in stream container bodies",
            )),
        }
    }

    fn make_cell(&mut self, env: &mut Env<'_>, ty: &Type) -> Result<Cell, EvalError> {
        let mut dims = Vec::with_capacity(ty.dims.len());
        for d in &ty.dims {
            dims.push(self.eval(env, d)?.as_index()?);
        }
        Ok(if dims.is_empty() {
            Cell::Scalar(ty.base, Value::zero_of(ty.base))
        } else {
            Cell::Array(ArrayVal::zeros(ty.base, dims))
        })
    }

    /// Reads a plain variable, on borrowed parts — the
    /// interpreter's hottest read; no allocation, no AST cloning.
    fn read_var(&mut self, env: &mut Env<'_>, name: &str) -> Result<Value, EvalError> {
        match env.lookup_mut(name)? {
            Cell::Scalar(_, v) => Ok(*v),
            Cell::Array(_) => Err(EvalError::new(format!(
                "`{name}` is an array; index it to read an element"
            ))),
        }
    }

    /// Reads an array element, on borrowed parts.
    fn read_index(
        &mut self,
        env: &mut Env<'_>,
        name: &str,
        idx_exprs: &[Expr],
    ) -> Result<Value, EvalError> {
        let idx = self.eval_indices(env, idx_exprs)?;
        match env.lookup_mut(name)? {
            Cell::Array(a) => a.get(idx.as_slice()),
            Cell::Scalar(..) => Err(EvalError::new(format!(
                "`{name}` is a scalar, not an array"
            ))),
        }
    }

    /// Applies `op` between the current value of `target` and `rhs` and
    /// writes the result back, returning `(old, new)`. Index expressions
    /// are evaluated exactly **once**, so a side-effecting index like
    /// `a[i++] += x` bumps `i` a single time and reads and writes the same
    /// element (compound assignment and `++`/`--` are read-modify-write of
    /// one location, as in C).
    fn read_modify_write(
        &mut self,
        env: &mut Env<'_>,
        target: &LValue,
        op: BinOp,
        rhs: Value,
    ) -> Result<(Value, Value), EvalError> {
        match target {
            LValue::Var(name) => {
                let cur = self.read_var(env, name)?;
                self.count_binop(op, cur, rhs);
                let next = bin_op(op, cur, rhs)?;
                match env.lookup_mut(name)? {
                    Cell::Scalar(ty, slot) => *slot = next.coerce_to(*ty)?,
                    Cell::Array(_) => unreachable!("read_var rejects arrays"),
                }
                Ok((cur, next))
            }
            LValue::Index(name, idx_exprs) => {
                let idx = self.eval_indices(env, idx_exprs)?;
                let Cell::Array(a) = env.lookup_mut(name)? else {
                    return Err(EvalError::new(format!(
                        "`{name}` is a scalar, not an array"
                    )));
                };
                let cur = a.get(idx.as_slice())?;
                self.count_binop(op, cur, rhs);
                let next = bin_op(op, cur, rhs)?;
                a.set(idx.as_slice(), next)?;
                Ok((cur, next))
            }
        }
    }

    fn assign(&mut self, env: &mut Env<'_>, lv: &LValue, v: Value) -> Result<(), EvalError> {
        match lv {
            LValue::Var(name) => match env.lookup_mut(name)? {
                Cell::Scalar(ty, slot) => {
                    *slot = v.coerce_to(*ty)?;
                    Ok(())
                }
                Cell::Array(_) => Err(EvalError::new(format!(
                    "cannot assign a scalar to array `{name}`"
                ))),
            },
            LValue::Index(name, idx_exprs) => {
                let idx = self.eval_indices(env, idx_exprs)?;
                match env.lookup_mut(name)? {
                    Cell::Array(a) => a.set(idx.as_slice(), v),
                    Cell::Scalar(..) => Err(EvalError::new(format!(
                        "`{name}` is a scalar, not an array"
                    ))),
                }
            }
        }
    }

    fn eval_indices(&mut self, env: &mut Env<'_>, exprs: &[Expr]) -> Result<IndexBuf, EvalError> {
        let mut idx = IndexBuf::default();
        for e in exprs {
            idx.push(self.eval(env, e)?.as_index()?);
        }
        Ok(idx)
    }

    fn count_binop(&mut self, op: BinOp, a: Value, b: Value) {
        if !(a.is_float() || b.is_float()) {
            return; // integer/boolean ops are not FP instructions
        }
        match op {
            BinOp::Add | BinOp::Sub => self.host.count_add(),
            BinOp::Mul => self.host.count_mul(),
            BinOp::Div => self.host.count_div(),
            BinOp::Rem => self.host.count_other(), // fprem
            op if op.is_comparison() => self.host.count_other(), // fcom
            _ => {}
        }
    }

    /// Evaluates an expression.
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`].
    pub fn eval(&mut self, env: &mut Env<'_>, expr: &Expr) -> Result<Value, EvalError> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Bool(v) => Ok(Value::Bool(*v)),
            Expr::Pi => Ok(Value::Float(std::f64::consts::PI)),
            Expr::Var(name) => self.read_var(env, name),
            Expr::Index(name, idx) => self.read_index(env, name, idx),
            Expr::Unary(op, e) => {
                let v = self.eval(env, e)?;
                if *op == UnOp::Neg && v.is_float() {
                    self.host.count_other(); // fchs
                }
                un_op(*op, v)
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    return Ok(Value::Bool(
                        self.eval(env, a)?.as_bool()? && self.eval(env, b)?.as_bool()?,
                    ));
                }
                if *op == BinOp::Or {
                    return Ok(Value::Bool(
                        self.eval(env, a)?.as_bool()? || self.eval(env, b)?.as_bool()?,
                    ));
                }
                let x = self.eval(env, a)?;
                let y = self.eval(env, b)?;
                self.count_binop(*op, x, y);
                bin_op(*op, x, y)
            }
            Expr::Peek(i) => {
                let i = self.eval(env, i)?.as_index()?;
                Ok(Value::Float(self.host.peek(i)?))
            }
            Expr::Pop => Ok(Value::Float(self.host.pop()?)),
            Expr::Push(e) => {
                let v = self.eval(env, e)?.as_f64()?;
                self.host.push(v)?;
                // `push` has no value; returning Int(0) keeps it harmless in
                // expression statements.
                Ok(Value::Int(0))
            }
            Expr::Call(name, args) => {
                if name == "print" || name == "println" {
                    if args.len() != 1 {
                        return Err(EvalError::new(format!("{name} expects 1 argument")));
                    }
                    let v = self.eval(env, &args[0])?;
                    self.host.print(v, name == "println")?;
                    return Ok(Value::Int(0));
                }
                if !is_math_fn(name) {
                    return Err(EvalError::new(format!("unknown function `{name}`")));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(env, a)?);
                }
                let r = math_call(name, &vals)?;
                if r.is_float() {
                    self.host.count_other(); // transcendental FP instruction
                }
                Ok(r)
            }
            Expr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let (cur, _) = self.read_modify_write(env, target, op, Value::Int(1))?;
                Ok(cur)
            }
        }
    }
}

/// Convenience: evaluates a single expression in a constant context over
/// the given persistent variables.
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
/// use streamlin_graph::exec::const_eval_expr;
/// use streamlin_graph::value::Value;
/// use streamlin_lang::ast::{BinOp, Expr};
///
/// let mut globals = HashMap::new();
/// let e = Expr::Binary(BinOp::Mul, Box::new(Expr::Int(6)), Box::new(Expr::Int(7)));
/// assert_eq!(const_eval_expr(&mut globals, &e).unwrap(), Value::Int(42));
/// ```
pub fn const_eval_expr(
    globals: &mut HashMap<String, Cell>,
    expr: &Expr,
) -> Result<Value, EvalError> {
    let mut host = PureHost;
    let mut interp = Interp::new(&mut host, DEFAULT_FUEL);
    let mut env = Env::new(globals);
    interp.eval(&mut env, expr)
}

/// Convenience: executes a block in a constant context — the reference
/// semantics of a filter's `init` block.
///
/// # Errors
///
/// Fails if the block uses tape operations, printing, or undefined names.
pub fn const_exec_block(
    globals: &mut HashMap<String, Cell>,
    block: &Block,
) -> Result<(), EvalError> {
    let mut host = PureHost;
    let mut interp = Interp::new(&mut host, DEFAULT_FUEL);
    let mut env = Env::new(globals);
    interp.exec_block(&mut env, block)?;
    Ok(())
}

/// Executes one *simple* statement (declaration, assignment, expression) in
/// flat constant mode: declarations land directly in `globals`. Used by
/// container-body elaboration for statements interleaved with `add`s.
///
/// # Errors
///
/// Fails on tape operations, printing, `add`, or undefined names.
pub fn const_exec_stmt_flat(
    globals: &mut HashMap<String, Cell>,
    stmt: &Stmt,
) -> Result<(), EvalError> {
    let mut host = PureHost;
    let mut interp = Interp::new(&mut host, DEFAULT_FUEL);
    let mut env = Env::flat(globals);
    interp.exec_stmt(&mut env, stmt)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_lang::ast::StreamKind;
    use streamlin_lang::parse;

    /// Test host that exposes an input tape and records pushes/prints.
    #[derive(Default)]
    struct VecHost {
        input: Vec<f64>,
        cursor: usize,
        pushed: Vec<f64>,
        printed: Vec<f64>,
        adds: u64,
        muls: u64,
        others: u64,
    }

    impl Host for VecHost {
        fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
            self.input
                .get(self.cursor + i)
                .copied()
                .ok_or_else(|| EvalError::new("peek past end of test input"))
        }
        fn pop(&mut self) -> Result<f64, EvalError> {
            let v = self.peek(0)?;
            self.cursor += 1;
            Ok(v)
        }
        fn push(&mut self, v: f64) -> Result<(), EvalError> {
            self.pushed.push(v);
            Ok(())
        }
        fn print(&mut self, v: Value, _nl: bool) -> Result<(), EvalError> {
            self.printed.push(v.as_f64()?);
            Ok(())
        }
        fn count_add(&mut self) {
            self.adds += 1;
        }
        fn count_mul(&mut self) {
            self.muls += 1;
        }
        fn count_other(&mut self) {
            self.others += 1;
        }
    }

    fn work_block(src: &str) -> Block {
        let p = parse(src).unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!("expected filter");
        };
        f.work.body.clone()
    }

    fn run_work(src: &str, input: Vec<f64>) -> VecHost {
        let body = work_block(src);
        let mut host = VecHost {
            input,
            ..VecHost::default()
        };
        let mut globals = HashMap::new();
        let mut interp = Interp::new(&mut host, 1_000_000);
        let mut env = Env::new(&mut globals);
        interp.exec_block(&mut env, &body).unwrap();
        host
    }

    #[test]
    fn fir_work_computes_weighted_sum() {
        let host = run_work(
            "float->float filter F {
                work push 1 pop 1 peek 3 {
                    float sum = 0;
                    for (int i = 0; i < 3; i++)
                        sum += (i + 1) * peek(i);
                    push(sum);
                    pop();
                }
            }",
            vec![1.0, 10.0, 100.0],
        );
        assert_eq!(host.pushed, vec![321.0]);
        assert_eq!(host.cursor, 1);
        // three multiply-adds on floats
        assert_eq!(host.muls, 3);
        assert_eq!(host.adds, 3);
    }

    #[test]
    fn integer_arithmetic_is_not_counted() {
        let host = run_work(
            "float->float filter F {
                work push 1 pop 1 {
                    int a = 2 * 21 + 7 % 3;
                    push(pop());
                    if (a > 0) { }
                }
            }",
            vec![5.0],
        );
        assert_eq!(host.muls, 0);
        assert_eq!(host.adds, 0);
        assert_eq!(host.others, 0);
    }

    #[test]
    fn post_increment_yields_old_value() {
        let host = run_work(
            "void->float filter F {
                work push 2 {
                    float x = 5;
                    push(x++);
                    push(x);
                }
            }",
            vec![],
        );
        assert_eq!(host.pushed, vec![5.0, 6.0]);
    }

    #[test]
    fn fields_persist_in_globals() {
        let body = work_block("void->float filter F { float x; work push 1 { push(x++); } }");
        let mut host = VecHost::default();
        let mut globals = HashMap::new();
        globals.insert(
            "x".to_string(),
            Cell::Scalar(streamlin_lang::ast::DataType::Float, Value::Float(0.0)),
        );
        let mut interp = Interp::new(&mut host, 10_000);
        for _ in 0..3 {
            let mut env = Env::new(&mut globals);
            interp.exec_block(&mut env, &body).unwrap();
        }
        assert_eq!(host.pushed, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn while_and_if_control_flow() {
        let host = run_work(
            "float->float filter F {
                work push 1 pop 1 {
                    int i = 0;
                    int acc = 0;
                    while (i < 10) {
                        if (i % 2 == 0) { acc = acc + i; }
                        i++;
                    }
                    push(acc);
                    pop();
                }
            }",
            vec![0.0],
        );
        assert_eq!(host.pushed, vec![20.0]); // 0+2+4+6+8
    }

    #[test]
    fn return_exits_early() {
        let host = run_work(
            "float->float filter F {
                work push 1 pop 1 {
                    push(1);
                    pop();
                    return;
                    push(2);
                }
            }",
            vec![0.0],
        );
        assert_eq!(host.pushed, vec![1.0]);
    }

    #[test]
    fn scoping_shadows_and_restores() {
        let host = run_work(
            "float->float filter F {
                work push 2 pop 1 {
                    int x = 1;
                    for (int x = 10; x < 11; x++) { push(x); }
                    push(x);
                    pop();
                }
            }",
            vec![0.0],
        );
        assert_eq!(host.pushed, vec![10.0, 1.0]);
    }

    #[test]
    fn side_effecting_index_is_evaluated_once_in_compound_assign() {
        // `a[i++] += 10` must bump `i` exactly once and read/write the
        // same element (a regression: the index used to be evaluated for
        // the read and again for the write).
        let host = run_work(
            "void->float filter F {
                work push 3 {
                    float[2] a;
                    a[0] = 1; a[1] = 2;
                    int i = 0;
                    a[i++] += 10;
                    push(a[0]);
                    push(a[1]);
                    push(i);
                }
            }",
            vec![],
        );
        assert_eq!(host.pushed, vec![11.0, 2.0, 1.0]);
    }

    #[test]
    fn side_effecting_index_is_evaluated_once_in_post_inc() {
        // `a[i++]++` must increment a[0] (old i), not a[1], and leave i=1.
        let host = run_work(
            "void->float filter F {
                work push 3 {
                    float[2] a;
                    int i = 0;
                    a[i++]++;
                    push(a[0]);
                    push(a[1]);
                    push(i);
                }
            }",
            vec![],
        );
        assert_eq!(host.pushed, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let body = work_block("float->float filter F { work push 1 pop 1 { while (true) { } } }");
        let mut host = VecHost::default();
        let mut globals = HashMap::new();
        let mut interp = Interp::new(&mut host, 1000);
        let mut env = Env::new(&mut globals);
        let err = interp.exec_block(&mut env, &body).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn const_context_rejects_tape_ops() {
        let mut globals = HashMap::new();
        let err = const_eval_expr(&mut globals, &Expr::Pop).unwrap_err();
        assert!(err.message.contains("constant context"));
    }

    #[test]
    fn const_exec_block_initializes_arrays() {
        let p = parse(
            "float->float filter F(int N) {
                float[4] h;
                init {
                    for (int i = 0; i < 4; i++) h[i] = i * 0.5;
                }
                work push 1 pop 1 { push(pop()); }
            }",
        )
        .unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!()
        };
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            Cell::Array(ArrayVal::zeros(
                streamlin_lang::ast::DataType::Float,
                vec![4],
            )),
        );
        const_exec_block(&mut globals, f.init.as_ref().unwrap()).unwrap();
        let Cell::Array(a) = &globals["h"] else {
            panic!()
        };
        assert_eq!(a.get(&[3]).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn math_calls_count_as_other() {
        let host = run_work(
            "float->float filter F {
                work push 1 pop 1 { push(sin(pop()) + sqrt(4.0)); }
            }",
            vec![0.5],
        );
        assert_eq!(host.others, 2);
        assert_eq!(host.adds, 1);
    }

    #[test]
    fn println_captures_output() {
        let host = run_work(
            "float->void filter F { work pop 1 { println(pop()); } }",
            vec![7.5],
        );
        assert_eq!(host.printed, vec![7.5]);
    }
}
