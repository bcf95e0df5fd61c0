//! Abstract syntax tree for the StreamIt dialect.
//!
//! The tree mirrors the structure of StreamIt programs as described in §2.1
//! of the paper: a program is a set of stream declarations, each of which is
//! a `filter` (with `init`, `work` and optional `initWork` phases) or one of
//! the three hierarchical containers (`pipeline`, `splitjoin`,
//! `feedbackloop`). Work-function bodies are C-like imperative code over the
//! tape primitives `peek(i)`, `pop()` and `push(v)`.
//!
//! Source positions: a block pairs each statement with its [`Span`], and
//! declarations that diagnostics point at ([`FieldDecl`], [`Param`],
//! [`WorkDecl`]) carry their own span. Spans are *position
//! metadata*, not syntax: the `PartialEq` impls below ignore them, so
//! equality is structural — the same program laid out differently, or a
//! tree built by hand with default spans, compares equal.

use crate::token::Span;

/// A parsed program: an ordered list of stream declarations. The *last*
/// `void->void` declaration is conventionally the top-level stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All top-level stream declarations.
    pub decls: Vec<StreamDecl>,
}

impl Program {
    /// Finds a declaration by name.
    pub fn find(&self, name: &str) -> Option<&StreamDecl> {
        self.decls.iter().find(|d| d.name == name)
    }

    /// The top-level stream: the last `void->void` declaration.
    pub fn top_level(&self) -> Option<&StreamDecl> {
        self.decls
            .iter()
            .rev()
            .find(|d| d.input == DataType::Void && d.output == DataType::Void)
    }
}

/// Scalar data types of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// No data (used for source inputs and sink outputs).
    Void,
    /// 64-bit float (StreamIt `float`; we widen to f64 throughout).
    Float,
    /// Signed integer.
    Int,
    /// Boolean.
    Bool,
}

/// A (possibly array) type: `float`, `int`, `float[N]`, `float[N][M]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Type {
    /// Element type.
    pub base: DataType,
    /// Array dimension expressions, outermost first; empty for scalars.
    pub dims: Vec<Expr>,
}

impl Type {
    /// A scalar of the given base type.
    pub fn scalar(base: DataType) -> Self {
        Type {
            base,
            dims: Vec::new(),
        }
    }
}

/// A formal parameter of a parameterized stream.
#[derive(Debug, Clone)]
pub struct Param {
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
    /// Where the parameter is declared (ignored by equality).
    pub span: Span,
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.name == other.name
    }
}

/// A top-level (or anonymous) stream declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDecl {
    /// Declared name; synthesized names like `"<anon pipeline>"` are used
    /// for anonymous streams.
    pub name: String,
    /// Input tape type.
    pub input: DataType,
    /// Output tape type.
    pub output: DataType,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// The body.
    pub kind: StreamKind,
}

/// The four stream constructs of StreamIt (Figure 2-1 of the paper).
#[allow(clippy::large_enum_variant)] // filters dominate; declarations are built once
#[derive(Debug, Clone, PartialEq)]
pub enum StreamKind {
    /// A leaf filter with its phases.
    Filter(FilterDecl),
    /// Serial composition; the body statements `add` children in order.
    Pipeline(Block),
    /// Explicitly parallel composition with a splitter and a joiner.
    SplitJoin(SplitJoinDecl),
    /// A cycle: joiner, body stream, loop stream, splitter, initial items.
    FeedbackLoop(FeedbackLoopDecl),
}

/// A filter declaration: fields plus `init`/`work`/`initWork` phases.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDecl {
    /// Persistent per-instance state.
    pub fields: Vec<FieldDecl>,
    /// Runs once at instance creation; may initialize fields.
    pub init: Option<Block>,
    /// The steady-state work function.
    pub work: WorkDecl,
    /// Optional first-invocation work function (`initWork` / `prework`).
    pub init_work: Option<WorkDecl>,
}

/// A field (persistent state) declaration.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Declared type (may be an array).
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Optional initializer expression.
    pub init: Option<Expr>,
    /// Where the field is declared (ignored by equality).
    pub span: Span,
}

impl PartialEq for FieldDecl {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.name == other.name && self.init == other.init
    }
}

/// A work function with its declared I/O rates.
#[derive(Debug, Clone)]
pub struct WorkDecl {
    /// Items pushed per firing (defaults to 0).
    pub push: Option<Expr>,
    /// Items popped per firing (defaults to 0).
    pub pop: Option<Expr>,
    /// Maximum index peeked + 1 (defaults to the pop rate).
    pub peek: Option<Expr>,
    /// The body.
    pub body: Block,
    /// Where the work function is declared (ignored by equality).
    pub span: Span,
}

impl PartialEq for WorkDecl {
    fn eq(&self, other: &Self) -> bool {
        self.push == other.push
            && self.pop == other.pop
            && self.peek == other.peek
            && self.body == other.body
    }
}

/// A splitjoin: splitter, `add` statements, joiner.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitJoinDecl {
    /// How items are distributed to children.
    pub split: SplitterAst,
    /// Body statements (`add`s, possibly under `for`/`if`).
    pub body: Block,
    /// How child outputs are interleaved.
    pub join: JoinerAst,
}

/// A feedback loop (paper Figure 2-1c).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackLoopDecl {
    /// Joiner merging external input with the feedback path.
    pub join: JoinerAst,
    /// The forward body stream.
    pub body: StreamRef,
    /// The feedback-path stream.
    pub loop_stream: StreamRef,
    /// Splitter distributing body output between downstream and feedback.
    pub split: SplitterAst,
    /// Items pre-loaded on the feedback path (`enqueue` statements).
    pub enqueue: Vec<Expr>,
}

/// Splitter kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitterAst {
    /// Every child receives a copy of every item.
    Duplicate,
    /// Weighted round-robin distribution; an empty weight list means
    /// weight 1 per child.
    RoundRobin(Vec<Expr>),
}

/// Joiner kinds (StreamIt joiners are always round-robin).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinerAst {
    /// Weighted round-robin interleaving; an empty weight list means
    /// weight 1 per child.
    RoundRobin(Vec<Expr>),
}

/// Reference to a child stream: a named instantiation or an anonymous
/// declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRef {
    /// `add Foo(a, b);`
    Named {
        /// Declaration name.
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `add pipeline { ... }` / `add splitjoin { ... }` / `add filter {...}`
    Anonymous(Box<StreamDecl>),
}

/// A sequence of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The statements in order, each with its source span (ignored by
    /// equality).
    pub stmts: Vec<(Span, Stmt)>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        (self.stmts.iter().map(|(_, s)| s)).eq(other.stmts.iter().map(|(_, s)| s))
    }
}

/// Statements of the imperative sub-language (plus the container-only
/// stream statements).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment through `=`, `+=`, `-=`, `*=`, `/=`.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Which compound operator (None for plain `=`).
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
    },
    /// C-style `for`.
    For {
        /// Initialization statement.
        init: Option<Box<Stmt>>,
        /// Loop condition (absent means `true`).
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Block,
    },
    /// `while (cond) { .. }`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// An expression evaluated for its side effects (`push(..)`, `pop()`,
    /// `println(..)`, `x++`).
    Expr(Expr),
    /// `return;` (work functions return no values).
    Return,
    /// Container-only: `add <stream>;`
    Add(StreamRef),
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable or field.
    Var(String),
    /// An array element `name[i]` / `name[i][j]`.
    Index(String, Vec<Expr>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// The constant π.
    Pi,
    /// Variable, parameter or field reference.
    Var(String),
    /// Array element read.
    Index(String, Vec<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `peek(i)` — read the tape at offset `i` without consuming.
    Peek(Box<Expr>),
    /// `pop()` — consume and return the front of the input tape.
    Pop,
    /// `push(v)` — append to the output tape (value-typed `void`).
    Push(Box<Expr>),
    /// Intrinsic or math call: `sin`, `cos`, `tan`, `atan`, `exp`, `log`,
    /// `sqrt`, `abs`, `floor`, `ceil`, `round`, `min`, `max`, `pow`,
    /// `print`, `println`.
    Call(String, Vec<Expr>),
    /// Postfix `x++` / `x--` (evaluates to the pre-increment value).
    PostIncDec {
        /// The mutated location.
        target: LValue,
        /// `true` for `++`, `false` for `--`.
        inc: bool,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinOp {
    /// True for the comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }

    /// True for operators whose result is only linear when both operands
    /// are constants (bit-level and boolean ops, per the extraction
    /// algorithm in Figure 3-2 of the paper).
    pub fn is_nonlinear(self) -> bool {
        matches!(
            self,
            BinOp::And
                | BinOp::Or
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
                | BinOp::Shl
                | BinOp::Shr
        ) || self.is_comparison()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_is_last_void_void() {
        let mk = |name: &str, io: DataType| StreamDecl {
            name: name.into(),
            input: io,
            output: io,
            params: vec![],
            kind: StreamKind::Pipeline(Block::default()),
        };
        let p = Program {
            decls: vec![
                mk("A", DataType::Void),
                mk("B", DataType::Float),
                mk("Top", DataType::Void),
            ],
        };
        assert_eq!(p.top_level().unwrap().name, "Top");
        assert!(p.find("B").is_some());
        assert!(p.find("missing").is_none());
    }

    #[test]
    fn operator_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Shl.is_nonlinear());
        assert!(BinOp::Eq.is_nonlinear());
        assert!(!BinOp::Mul.is_nonlinear());
    }
}
