//! Dynamic values and operator semantics of the StreamIt dialect.
//!
//! StreamIt's `work` code is C-like (§2.1); its values here are 64-bit
//! integers, 64-bit floats and booleans, plus dense (possibly
//! multi-dimensional) arrays for fields like FIR weight tables. Operator
//! semantics follow C with the usual int→float promotion. All three
//! consumers — elaboration-time constant evaluation, the runtime
//! interpreter, and the linear-extraction symbolic executor — share these
//! rules so a filter behaves identically under analysis and execution.

use streamlin_lang::ast::{BinOp, DataType, UnOp};

/// A scalar runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

/// Errors raised by value operations and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Explanation of the problem.
    pub message: String,
}

impl EvalError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl Value {
    /// The zero value of a scalar type.
    pub fn zero_of(ty: DataType) -> Value {
        match ty {
            DataType::Int => Value::Int(0),
            DataType::Bool => Value::Bool(false),
            _ => Value::Float(0.0),
        }
    }

    /// Numeric value as `f64` (booleans are rejected).
    #[inline]
    pub fn as_f64(&self) -> Result<f64, EvalError> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            Value::Bool(_) => Err(EvalError::new("expected a number, found a boolean")),
        }
    }

    /// Integer value (floats are rejected — C-style implicit float→int
    /// truncation is not part of the dialect).
    #[inline]
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(EvalError::new(format!(
                "expected an integer, found {other:?}"
            ))),
        }
    }

    /// Non-negative integer (for rates, sizes and indices).
    #[inline]
    pub fn as_index(&self) -> Result<usize, EvalError> {
        let v = self.as_int()?;
        usize::try_from(v)
            .map_err(|_| EvalError::new(format!("expected a non-negative integer, found {v}")))
    }

    /// Boolean value.
    #[inline]
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::new(format!(
                "expected a boolean, found {other:?}"
            ))),
        }
    }

    /// Coerces to the declared type of an assignment target
    /// (int promotes to float; everything else must match).
    #[inline]
    pub fn coerce_to(&self, ty: DataType) -> Result<Value, EvalError> {
        match (ty, self) {
            (DataType::Float, Value::Int(v)) => Ok(Value::Float(*v as f64)),
            (DataType::Float, Value::Float(_))
            | (DataType::Int, Value::Int(_))
            | (DataType::Bool, Value::Bool(_)) => Ok(*self),
            (want, got) => Err(EvalError::new(format!(
                "cannot store {got:?} into a variable of type {want:?}"
            ))),
        }
    }

    /// True if the value is a float (used by FLOP accounting: integer
    /// arithmetic is free, exactly as in the paper's instruction counts).
    #[inline]
    pub fn is_float(&self) -> bool {
        matches!(self, Value::Float(_))
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Applies a binary operator with C-like semantics and int→float promotion.
///
/// # Errors
///
/// Returns an [`EvalError`] for type mismatches and division by zero.
pub fn bin_op(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    // Logical and bitwise families first (no promotion across kinds).
    match op {
        And | Or => {
            let (x, y) = (a.as_bool()?, b.as_bool()?);
            return Ok(Value::Bool(if op == And { x && y } else { x || y }));
        }
        BitAnd | BitOr | BitXor | Shl | Shr => {
            let (x, y) = (a.as_int()?, b.as_int()?);
            let r = match op {
                BitAnd => x & y,
                BitOr => x | y,
                BitXor => x ^ y,
                Shl => x.checked_shl(y as u32).unwrap_or(0),
                Shr => x.checked_shr(y as u32).unwrap_or(0),
                _ => unreachable!(),
            };
            return Ok(Value::Int(r));
        }
        _ => {}
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(op, x, y),
        (Value::Bool(x), Value::Bool(y)) if matches!(op, Eq | Ne) => {
            Ok(Value::Bool(if op == Eq { x == y } else { x != y }))
        }
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            float_op(op, x, y)
        }
    }
}

fn int_op(op: BinOp, x: i64, y: i64) -> Result<Value, EvalError> {
    use BinOp::*;
    Ok(match op {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err(EvalError::new("integer division by zero"));
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err(EvalError::new("integer remainder by zero"));
            }
            Value::Int(x.wrapping_rem(y))
        }
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Gt => Value::Bool(x > y),
        Le => Value::Bool(x <= y),
        Ge => Value::Bool(x >= y),
        _ => {
            return Err(EvalError::new(format!(
                "operator {op:?} not defined on integers"
            )))
        }
    })
}

fn float_op(op: BinOp, x: f64, y: f64) -> Result<Value, EvalError> {
    use BinOp::*;
    Ok(match op {
        Add => Value::Float(x + y),
        Sub => Value::Float(x - y),
        Mul => Value::Float(x * y),
        Div => Value::Float(x / y),
        Rem => Value::Float(x % y),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Gt => Value::Bool(x > y),
        Le => Value::Bool(x <= y),
        Ge => Value::Bool(x >= y),
        _ => {
            return Err(EvalError::new(format!(
                "operator {op:?} not defined on floats"
            )))
        }
    })
}

/// Applies a unary operator.
///
/// # Errors
///
/// Returns an [`EvalError`] on type mismatch.
pub fn un_op(op: UnOp, a: Value) -> Result<Value, EvalError> {
    match (op, a) {
        (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
        (UnOp::Neg, Value::Float(v)) => Ok(Value::Float(-v)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (op, v) => Err(EvalError::new(format!(
            "operator {op:?} not defined on {v:?}"
        ))),
    }
}

/// A math intrinsic of the dialect, resolved from its source name once (at
/// lowering time) so dispatch on the firing path is a jump table rather
/// than a string comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror the C math functions they wrap
pub enum MathFn {
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Exp,
    Log,
    Log10,
    Sqrt,
    Abs,
    Floor,
    Ceil,
    Round,
    Pow,
    Atan2,
    Min,
    Max,
}

impl MathFn {
    /// Resolves a source-level name, or `None` for unknown functions.
    pub fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sin" => MathFn::Sin,
            "cos" => MathFn::Cos,
            "tan" => MathFn::Tan,
            "asin" => MathFn::Asin,
            "acos" => MathFn::Acos,
            "atan" => MathFn::Atan,
            "exp" => MathFn::Exp,
            "log" => MathFn::Log,
            "log10" => MathFn::Log10,
            "sqrt" => MathFn::Sqrt,
            "abs" => MathFn::Abs,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "round" => MathFn::Round,
            "pow" => MathFn::Pow,
            "atan2" => MathFn::Atan2,
            "min" => MathFn::Min,
            "max" => MathFn::Max,
            _ => return None,
        })
    }

    /// The source-level name (for error messages).
    pub fn name(self) -> &'static str {
        match self {
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Tan => "tan",
            MathFn::Asin => "asin",
            MathFn::Acos => "acos",
            MathFn::Atan => "atan",
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Log10 => "log10",
            MathFn::Sqrt => "sqrt",
            MathFn::Abs => "abs",
            MathFn::Floor => "floor",
            MathFn::Ceil => "ceil",
            MathFn::Round => "round",
            MathFn::Pow => "pow",
            MathFn::Atan2 => "atan2",
            MathFn::Min => "min",
            MathFn::Max => "max",
        }
    }

    /// How many arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Atan2 | MathFn::Min | MathFn::Max => 2,
            _ => 1,
        }
    }

    /// The `f64` function behind a one-argument intrinsic — the single
    /// definition both [`MathFn::call`] and the typed bytecode apply.
    ///
    /// # Panics
    ///
    /// Panics on a two-argument intrinsic (arity is validated at lowering).
    #[inline]
    pub fn apply1(self, x: f64) -> f64 {
        match self {
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Tan => x.tan(),
            MathFn::Asin => x.asin(),
            MathFn::Acos => x.acos(),
            MathFn::Atan => x.atan(),
            MathFn::Exp => x.exp(),
            MathFn::Log => x.ln(),
            MathFn::Log10 => x.log10(),
            MathFn::Sqrt => x.sqrt(),
            MathFn::Abs => x.abs(),
            MathFn::Floor => x.floor(),
            MathFn::Ceil => x.ceil(),
            MathFn::Round => x.round(),
            MathFn::Pow | MathFn::Atan2 | MathFn::Min | MathFn::Max => {
                unreachable!("{} takes two arguments", self.name())
            }
        }
    }

    /// The `f64` function behind a two-argument intrinsic.
    ///
    /// # Panics
    ///
    /// Panics on a one-argument intrinsic.
    #[inline]
    pub fn apply2(self, x: f64, y: f64) -> f64 {
        match self {
            MathFn::Pow => x.powf(y),
            MathFn::Atan2 => x.atan2(y),
            MathFn::Min => x.min(y),
            MathFn::Max => x.max(y),
            _ => unreachable!("{} takes one argument", self.name()),
        }
    }

    /// Applies the function: `abs`, `min` and `max` stay integral on
    /// integers, everything else promotes to float.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for wrong arity or non-numeric arguments.
    pub fn call(self, args: &[Value]) -> Result<Value, EvalError> {
        match (self, args) {
            (MathFn::Abs, [Value::Int(v)]) => Ok(Value::Int(v.abs())),
            (MathFn::Min, [Value::Int(x), Value::Int(y)]) => Ok(Value::Int(*x.min(y))),
            (MathFn::Max, [Value::Int(x), Value::Int(y)]) => Ok(Value::Int(*x.max(y))),
            (f, [x]) if f.arity() == 1 => Ok(Value::Float(f.apply1(x.as_f64()?))),
            (f, [x, y]) if f.arity() == 2 => {
                let (x, y) = (x.as_f64()?, y.as_f64()?);
                Ok(Value::Float(f.apply2(x, y)))
            }
            (f, _) => Err(EvalError::new(format!(
                "{} expects {} argument{}",
                f.name(),
                f.arity(),
                if f.arity() == 1 { "" } else { "s" }
            ))),
        }
    }
}

/// Flattens a multi-dimensional index into a row-major array of the given
/// dimensions (shared with the symbolic arrays of linear extraction).
///
/// # Errors
///
/// Returns an [`EvalError`] for rank mismatch or out-of-bounds access.
#[inline]
pub fn flat_offset(dims: &[usize], idx: &[usize]) -> Result<usize, EvalError> {
    if idx.len() != dims.len() {
        return Err(EvalError::new(format!(
            "array expects {} indices, got {}",
            dims.len(),
            idx.len()
        )));
    }
    let mut off = 0;
    for (i, (&ix, &dim)) in idx.iter().zip(dims).enumerate() {
        if ix >= dim {
            return Err(EvalError::new(format!(
                "index {ix} out of bounds for dimension {i} of size {dim}"
            )));
        }
        off = off * dim + ix;
    }
    Ok(off)
}

/// A dense array value with row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVal {
    /// Dimension sizes, outermost first.
    pub dims: Vec<usize>,
    /// Element type.
    pub elem: DataType,
    /// Row-major elements.
    pub data: Vec<Value>,
}

impl ArrayVal {
    /// Creates an array of zeros.
    pub fn zeros(elem: DataType, dims: Vec<usize>) -> Self {
        let n = dims.iter().product();
        ArrayVal {
            dims,
            elem,
            data: vec![Value::zero_of(elem); n],
        }
    }
}

/// A storage cell: either a scalar or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Scalar variable of the given declared type.
    Scalar(DataType, Value),
    /// Array variable.
    Array(ArrayVal),
}

impl Cell {
    /// Creates the default cell for a declared type.
    pub fn zero_of(elem: DataType, dims: Vec<usize>) -> Cell {
        if dims.is_empty() {
            Cell::Scalar(elem, Value::zero_of(elem))
        } else {
            Cell::Array(ArrayVal::zeros(elem, dims))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_and_arithmetic() {
        assert_eq!(
            bin_op(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            bin_op(BinOp::Add, Value::Int(2), Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            bin_op(BinOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin_op(BinOp::Rem, Value::Int(7), Value::Int(3)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            bin_op(BinOp::Div, Value::Float(7.0), Value::Float(2.0)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(bin_op(BinOp::Div, Value::Int(1), Value::Int(0)).is_err());
        assert!(bin_op(BinOp::Rem, Value::Int(1), Value::Int(0)).is_err());
        // Float division by zero follows IEEE
        assert_eq!(
            bin_op(BinOp::Div, Value::Float(1.0), Value::Float(0.0)).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            bin_op(BinOp::Lt, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin_op(BinOp::Ge, Value::Float(2.0), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin_op(BinOp::And, Value::Bool(true), Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
        assert!(bin_op(BinOp::And, Value::Int(1), Value::Bool(true)).is_err());
    }

    #[test]
    fn bitwise_requires_ints() {
        assert_eq!(
            bin_op(BinOp::BitAnd, Value::Int(6), Value::Int(3)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            bin_op(BinOp::Shl, Value::Int(1), Value::Int(4)).unwrap(),
            Value::Int(16)
        );
        assert!(bin_op(BinOp::BitOr, Value::Float(1.0), Value::Int(1)).is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(un_op(UnOp::Neg, Value::Int(3)).unwrap(), Value::Int(-3));
        assert_eq!(
            un_op(UnOp::Neg, Value::Float(1.5)).unwrap(),
            Value::Float(-1.5)
        );
        assert_eq!(
            un_op(UnOp::Not, Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(un_op(UnOp::Not, Value::Int(1)).is_err());
    }

    #[test]
    fn math_intrinsics() {
        let call = |name: &str, args: &[Value]| MathFn::from_name(name).unwrap().call(args);
        assert_eq!(
            call("sqrt", &[Value::Float(9.0)]).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(call("abs", &[Value::Int(-4)]).unwrap(), Value::Int(4));
        assert_eq!(
            call("max", &[Value::Int(3), Value::Int(7)]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            call("pow", &[Value::Float(2.0), Value::Int(10)]).unwrap(),
            Value::Float(1024.0)
        );
        assert!(MathFn::from_name("nope").is_none());
        assert!(MathFn::from_name("println").is_none());
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::Float(3.5).coerce_to(DataType::Int).is_err());
        assert!(Value::Bool(true).coerce_to(DataType::Float).is_err());
    }

    #[test]
    fn arrays_round_trip() {
        let mut a = ArrayVal::zeros(DataType::Float, vec![2, 3]);
        let at = flat_offset(&a.dims, &[1, 2]).unwrap();
        a.data[at] = Value::Int(7).coerce_to(a.elem).unwrap();
        assert_eq!(a.data[5], Value::Float(7.0));
        assert_eq!(
            a.data[flat_offset(&a.dims, &[0, 0]).unwrap()],
            Value::Float(0.0)
        );
        assert!(flat_offset(&a.dims, &[2, 0]).is_err());
        assert!(flat_offset(&a.dims, &[0]).is_err());
    }
}
