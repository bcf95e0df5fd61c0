//! Recursive-descent parser for the StreamIt dialect.
//!
//! The parser indexes the token vector [`tokenize`] returns and reads the
//! current token by reference; advancing copies nothing. Tokens borrow
//! their text from the source, so a name becomes a `String` exactly once,
//! when the AST node that holds it is built, and an error describes the
//! token it found as written ([`Spanned::describe`]).

use crate::ast::*;
use crate::lexer::{tokenize, LexError};
use crate::token::{Span, Spanned, Token};

/// A parse (or lex) error with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Explanation of the problem.
    pub message: String,
    /// Where it occurred.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Deepest nesting [`parse`] accepts, in expression levels. The parser is
/// recursive descent, and so is every pass over the tree it builds
/// (elaboration, lowering, the abstract walker, the bytecode compiler, the
/// tree-walker, `Drop`): without a budget here, `((((…1…))))` is a
/// stack overflow in whichever of them runs out first. A left-deep chain
/// `a + b + c + …` nests the tree without nesting the parser, so its
/// operators count too. Sized for an unoptimised build on a 2 MB thread,
/// where one parenthesis costs the parser ~7 KB of stack.
pub const MAX_NESTING: usize = 128;

/// What a statement — and the anonymous stream an `add` may open — costs
/// against [`MAX_NESTING`]: their frames are that much larger.
const STMT_LEVELS: usize = 4;

/// Parses a complete program.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem encountered, or where nesting passed [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// let p = streamlin_lang::parse(
///     "void->void pipeline Main { add Src(); add Sink(); }
///      void->float filter Src { work push 1 { push(1.0); } }
///      float->void filter Sink { work pop 1 { println(pop()); } }",
/// )
/// .unwrap();
/// assert_eq!(p.top_level().unwrap().name, "Main");
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    parser.program()
}

struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    /// Statements and expressions open around `pos`.
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl<'src> Parser<'src> {
    fn cur(&self) -> &Token<'src> {
        &self.toks[self.pos].token
    }

    fn cur_span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn lookahead(&self, n: usize) -> &Token<'src> {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].token
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.cur() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> PResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// "expected `what`, found <the current token as written>".
    fn unexpected(&self, what: &str) -> ParseError {
        let found = self.toks[self.pos].describe();
        self.error(format!("expected {what}, found {found}"))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.cur_span(),
        }
    }

    /// Runs `f` `levels` nesting levels down.
    fn nested<T>(&mut self, levels: usize, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth + levels > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += levels;
        let r = f(self);
        self.depth -= levels;
        r
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match *self.cur() {
            Token::Ident(s) => {
                self.bump();
                Ok(s.to_owned())
            }
            _ => Err(self.unexpected(what)),
        }
    }

    // ---- program structure ----------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut decls = Vec::new();
        while *self.cur() != Token::Eof {
            decls.push(self.stream_decl()?);
        }
        Ok(Program { decls })
    }

    fn data_type(&mut self) -> PResult<DataType> {
        let ty = match self.cur() {
            Token::KwVoid => DataType::Void,
            Token::KwFloat => DataType::Float,
            Token::KwInt => DataType::Int,
            Token::KwBoolean => DataType::Bool,
            _ => return Err(self.unexpected("a type")),
        };
        self.bump();
        Ok(ty)
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.cur(),
            Token::KwFloat | Token::KwInt | Token::KwBoolean | Token::KwVoid
        )
    }

    fn ty(&mut self) -> PResult<Type> {
        let base = self.data_type()?;
        let mut dims = Vec::new();
        while self.eat(&Token::LBracket) {
            dims.push(self.expr()?);
            self.expect(&Token::RBracket, "`]`")?;
        }
        Ok(Type { base, dims })
    }

    fn stream_decl(&mut self) -> PResult<StreamDecl> {
        let input = self.data_type()?;
        self.expect(&Token::Arrow, "`->`")?;
        let output = self.data_type()?;
        self.stream_decl_tail(input, output)
    }

    /// Parses `filter|pipeline|splitjoin|feedbackloop [Name] [(params)] body`.
    fn stream_decl_tail(&mut self, input: DataType, output: DataType) -> PResult<StreamDecl> {
        let kind_tok = *self.cur();
        let kw = match kind_tok {
            Token::KwFilter => "filter",
            Token::KwPipeline => "pipeline",
            Token::KwSplitJoin => "splitjoin",
            Token::KwFeedbackLoop => "feedbackloop",
            _ => return Err(self.unexpected("`filter`, `pipeline`, `splitjoin` or `feedbackloop`")),
        };
        self.bump();
        let (name, params) = if let Token::Ident(_) = self.cur() {
            let name = self.ident("stream name")?;
            let params = if *self.cur() == Token::LParen {
                self.param_list()?
            } else {
                Vec::new()
            };
            (name, params)
        } else {
            (format!("<anonymous {kw}>"), Vec::new())
        };
        let kind = match kind_tok {
            Token::KwFilter => StreamKind::Filter(self.filter_body()?),
            Token::KwPipeline => StreamKind::Pipeline(self.block()?),
            Token::KwSplitJoin => StreamKind::SplitJoin(self.splitjoin_body()?),
            _ => StreamKind::FeedbackLoop(self.feedback_body()?),
        };
        Ok(StreamDecl {
            name,
            input,
            output,
            params,
            kind,
        })
    }

    fn param_list(&mut self) -> PResult<Vec<Param>> {
        self.expect(&Token::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                let span = self.cur_span();
                let ty = self.ty()?;
                let name = self.ident("parameter name")?;
                params.push(Param { ty, name, span });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "`)`")?;
        }
        Ok(params)
    }

    // ---- filter bodies ---------------------------------------------------

    fn filter_body(&mut self) -> PResult<FilterDecl> {
        self.expect(&Token::LBrace, "`{` starting filter body")?;
        let mut fields = Vec::new();
        let mut init = None;
        let mut work = None;
        let mut init_work = None;
        while !self.eat(&Token::RBrace) {
            match self.cur() {
                Token::KwInit => {
                    self.bump();
                    if init.replace(self.block()?).is_some() {
                        return Err(self.error("duplicate `init` block"));
                    }
                }
                Token::KwWork => {
                    let span = self.cur_span();
                    self.bump();
                    if work.replace(self.work_decl(span)?).is_some() {
                        return Err(self.error("duplicate `work` function"));
                    }
                }
                Token::KwInitWork => {
                    let span = self.cur_span();
                    self.bump();
                    if init_work.replace(self.work_decl(span)?).is_some() {
                        return Err(self.error("duplicate `initWork` function"));
                    }
                }
                _ if self.is_type_start() => {
                    let span = self.cur_span();
                    let ty = self.ty()?;
                    let name = self.ident("field name")?;
                    let fi = if self.eat(&Token::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(&Token::Semi, "`;` after field declaration")?;
                    fields.push(FieldDecl {
                        ty,
                        name,
                        init: fi,
                        span,
                    });
                }
                _ => {
                    return Err(
                        self.unexpected("a field, `init`, `work` or `initWork` in filter body")
                    )
                }
            }
        }
        let work = work.ok_or_else(|| self.error("filter has no `work` function"))?;
        Ok(FilterDecl {
            fields,
            init,
            work,
            init_work,
        })
    }

    fn work_decl(&mut self, span: Span) -> PResult<WorkDecl> {
        let mut push = None;
        let mut pop = None;
        let mut peek = None;
        loop {
            match self.cur() {
                Token::KwPush => {
                    self.bump();
                    push = Some(self.expr()?);
                }
                Token::KwPop => {
                    self.bump();
                    pop = Some(self.expr()?);
                }
                Token::KwPeek => {
                    self.bump();
                    peek = Some(self.expr()?);
                }
                Token::LBrace => break,
                _ => return Err(self.unexpected("rate declaration or `{` after `work`")),
            }
        }
        let body = self.block()?;
        Ok(WorkDecl {
            push,
            pop,
            peek,
            body,
            span,
        })
    }

    // ---- containers ------------------------------------------------------

    fn splitter(&mut self) -> PResult<SplitterAst> {
        match self.cur() {
            Token::KwDuplicate => {
                self.bump();
                // permit `duplicate()` as well as bare `duplicate`
                if self.eat(&Token::LParen) {
                    self.expect(&Token::RParen, "`)`")?;
                }
                Ok(SplitterAst::Duplicate)
            }
            Token::KwRoundRobin => {
                self.bump();
                Ok(SplitterAst::RoundRobin(self.weight_list()?))
            }
            _ => Err(self.unexpected("`duplicate` or `roundrobin`")),
        }
    }

    fn joiner(&mut self) -> PResult<JoinerAst> {
        match self.cur() {
            Token::KwRoundRobin => {
                self.bump();
                Ok(JoinerAst::RoundRobin(self.weight_list()?))
            }
            _ => Err(self.unexpected("`roundrobin` joiner")),
        }
    }

    fn weight_list(&mut self) -> PResult<Vec<Expr>> {
        let mut weights = Vec::new();
        if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
            loop {
                weights.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "`)`")?;
        }
        Ok(weights)
    }

    fn splitjoin_body(&mut self) -> PResult<SplitJoinDecl> {
        self.expect(&Token::LBrace, "`{` starting splitjoin body")?;
        let mut split = None;
        let mut join = None;
        let mut stmts = Vec::new();
        while !self.eat(&Token::RBrace) {
            match self.cur() {
                Token::KwSplit => {
                    self.bump();
                    if split.replace(self.splitter()?).is_some() {
                        return Err(self.error("duplicate `split` declaration"));
                    }
                    self.expect(&Token::Semi, "`;` after `split`")?;
                }
                Token::KwJoin => {
                    self.bump();
                    if join.replace(self.joiner()?).is_some() {
                        return Err(self.error("duplicate `join` declaration"));
                    }
                    self.expect(&Token::Semi, "`;` after `join`")?;
                }
                _ => stmts.push((self.cur_span(), self.stmt()?)),
            }
        }
        let split = split.ok_or_else(|| self.error("splitjoin has no `split` declaration"))?;
        let join = join.ok_or_else(|| self.error("splitjoin has no `join` declaration"))?;
        Ok(SplitJoinDecl {
            split,
            body: Block { stmts },
            join,
        })
    }

    fn feedback_body(&mut self) -> PResult<FeedbackLoopDecl> {
        self.expect(&Token::LBrace, "`{` starting feedbackloop body")?;
        let mut join = None;
        let mut split = None;
        let mut body = None;
        let mut loop_stream = None;
        let mut enqueue = Vec::new();
        while !self.eat(&Token::RBrace) {
            match self.cur() {
                Token::KwJoin => {
                    self.bump();
                    join = Some(self.joiner()?);
                    self.expect(&Token::Semi, "`;` after `join`")?;
                }
                Token::KwSplit => {
                    self.bump();
                    split = Some(self.splitter()?);
                    self.expect(&Token::Semi, "`;` after `split`")?;
                }
                Token::KwBody => {
                    self.bump();
                    body = Some(self.stream_ref()?);
                    self.eat(&Token::Semi);
                }
                Token::KwLoop => {
                    self.bump();
                    loop_stream = Some(self.stream_ref()?);
                    self.eat(&Token::Semi);
                }
                Token::KwEnqueue => {
                    self.bump();
                    enqueue.push(self.expr()?);
                    self.expect(&Token::Semi, "`;` after `enqueue`")?;
                }
                _ => return Err(self.unexpected("`join`, `body`, `loop`, `split` or `enqueue`")),
            }
        }
        Ok(FeedbackLoopDecl {
            join: join.ok_or_else(|| self.error("feedbackloop has no `join`"))?,
            body: body.ok_or_else(|| self.error("feedbackloop has no `body`"))?,
            loop_stream: loop_stream.ok_or_else(|| self.error("feedbackloop has no `loop`"))?,
            split: split.ok_or_else(|| self.error("feedbackloop has no `split`"))?,
            enqueue,
        })
    }

    /// A child stream reference: named instantiation or anonymous stream.
    fn stream_ref(&mut self) -> PResult<StreamRef> {
        match *self.cur() {
            Token::Ident(_) => {
                let name = self.ident("stream name")?;
                let mut args = Vec::new();
                if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen, "`)`")?;
                }
                Ok(StreamRef::Named { name, args })
            }
            // anonymous stream, optionally with explicit `T->T` types
            Token::KwPipeline | Token::KwSplitJoin | Token::KwFilter | Token::KwFeedbackLoop => {
                let decl = self.nested(STMT_LEVELS, |p| {
                    p.stream_decl_tail(DataType::Float, DataType::Float)
                })?;
                Ok(StreamRef::Anonymous(Box::new(decl)))
            }
            Token::KwVoid | Token::KwFloat | Token::KwInt | Token::KwBoolean
                if *self.lookahead(1) == Token::Arrow =>
            {
                let input = self.data_type()?;
                self.expect(&Token::Arrow, "`->`")?;
                let output = self.data_type()?;
                let decl = self.nested(STMT_LEVELS, |p| p.stream_decl_tail(input, output))?;
                Ok(StreamRef::Anonymous(Box::new(decl)))
            }
            _ => Err(self.unexpected("a stream reference")),
        }
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.expect(&Token::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.eat(&Token::RBrace) {
            stmts.push((self.cur_span(), self.nested(STMT_LEVELS, Self::stmt)?));
        }
        Ok(Block { stmts })
    }

    /// A block, or a single statement treated as a one-element block
    /// (unbraced `for`/`if` bodies).
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if *self.cur() == Token::LBrace {
            self.block()
        } else {
            let span = self.cur_span();
            let stmt = self.nested(STMT_LEVELS, Self::stmt)?;
            Ok(Block {
                stmts: vec![(span, stmt)],
            })
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        match self.cur() {
            Token::KwAdd => {
                self.bump();
                let s = self.stream_ref()?;
                self.eat(&Token::Semi);
                Ok(Stmt::Add(s))
            }
            Token::KwIf => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `if`")?;
                let cond = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                let then_blk = self.block_or_stmt()?;
                let else_blk = if self.eat(&Token::KwElse) {
                    Some(self.block_or_stmt()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Token::KwWhile => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `while`")?;
                let cond = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While { cond, body })
            }
            Token::KwFor => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `for`")?;
                let init = if *self.cur() == Token::Semi {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&Token::Semi, "`;` after for-initializer")?;
                let cond = if *self.cur() == Token::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Token::Semi, "`;` after for-condition")?;
                let step = if *self.cur() == Token::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&Token::RParen, "`)`")?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Token::KwReturn => {
                self.bump();
                self.expect(&Token::Semi, "`;` after `return`")?;
                Ok(Stmt::Return)
            }
            _ if self.is_type_start() => {
                let s = self.decl_stmt()?;
                self.expect(&Token::Semi, "`;` after declaration")?;
                Ok(s)
            }
            _ => {
                let s = self.expr_or_assign()?;
                self.expect(&Token::Semi, "`;` after statement")?;
                Ok(s)
            }
        }
    }

    /// A statement legal in `for(...)` headers: declaration, assignment or
    /// expression — without the trailing semicolon.
    fn simple_stmt(&mut self) -> PResult<Stmt> {
        if self.is_type_start() {
            self.decl_stmt()
        } else {
            self.expr_or_assign()
        }
    }

    fn decl_stmt(&mut self) -> PResult<Stmt> {
        let ty = self.ty()?;
        let name = self.ident("variable name")?;
        let init = if self.eat(&Token::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl { ty, name, init })
    }

    fn expr_or_assign(&mut self) -> PResult<Stmt> {
        let e = self.expr()?;
        let op = match self.cur() {
            Token::Assign => None,
            Token::PlusAssign => Some(BinOp::Add),
            Token::MinusAssign => Some(BinOp::Sub),
            Token::StarAssign => Some(BinOp::Mul),
            Token::SlashAssign => Some(BinOp::Div),
            _ => return Ok(Stmt::Expr(e)),
        };
        self.bump();
        let target = match e {
            Expr::Var(name) => LValue::Var(name),
            Expr::Index(name, idx) => LValue::Index(name, idx),
            other => {
                return Err(self.error(format!(
                "left-hand side of assignment must be a variable or array element, found {other:?}"
            )))
            }
        };
        let value = self.expr()?;
        Ok(Stmt::Assign { target, op, value })
    }

    // ---- expressions -----------------------------------------------------

    /// Every way an expression contains another — parentheses, arguments,
    /// indices — comes back through here.
    fn expr(&mut self) -> PResult<Expr> {
        self.nested(1, |p| p.binary_expr(0))
    }

    /// Precedence-climbing over the C-like operator table.
    fn binary_expr(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        let mut chained = 0;
        loop {
            let (op, prec) = match self.cur() {
                Token::OrOr => (BinOp::Or, 1),
                Token::AndAnd => (BinOp::And, 2),
                Token::Pipe => (BinOp::BitOr, 3),
                Token::Caret => (BinOp::BitXor, 4),
                Token::Amp => (BinOp::BitAnd, 5),
                Token::EqEq => (BinOp::Eq, 6),
                Token::NotEq => (BinOp::Ne, 6),
                Token::Lt => (BinOp::Lt, 7),
                Token::Gt => (BinOp::Gt, 7),
                Token::Le => (BinOp::Le, 7),
                Token::Ge => (BinOp::Ge, 7),
                Token::Shl => (BinOp::Shl, 8),
                Token::Shr => (BinOp::Shr, 8),
                Token::Plus => (BinOp::Add, 9),
                Token::Minus => (BinOp::Sub, 9),
                Token::Star => (BinOp::Mul, 10),
                Token::Slash => (BinOp::Div, 10),
                Token::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            chained += 1;
            let rhs = self.nested(chained, |p| p.binary_expr(prec + 1))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let op = match self.cur() {
            Token::Minus => UnOp::Neg,
            Token::Not => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let operand = self.nested(1, Self::unary_expr)?;
        Ok(Expr::Unary(op, Box::new(operand)))
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        while matches!(self.cur(), Token::PlusPlus | Token::MinusMinus) {
            let inc = *self.cur() == Token::PlusPlus;
            let target = match e {
                Expr::Var(name) => LValue::Var(name),
                Expr::Index(name, idx) => LValue::Index(name, idx),
                other => {
                    return Err(self.error(format!(
                        "`++`/`--` require a variable or array element, found {other:?}"
                    )))
                }
            };
            self.bump();
            e = Expr::PostIncDec { target, inc };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        match *self.cur() {
            Token::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Token::Float(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            Token::KwTrue => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Token::KwFalse => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Token::KwPi => {
                self.bump();
                Ok(Expr::Pi)
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::KwPop => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `pop`")?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(Expr::Pop)
            }
            Token::KwPeek => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `peek`")?;
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(Expr::Peek(Box::new(e)))
            }
            Token::KwPush => {
                self.bump();
                self.expect(&Token::LParen, "`(` after `push`")?;
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(Expr::Push(Box::new(e)))
            }
            Token::Ident(name) => {
                let name = name.to_owned();
                self.bump();
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen, "`)`")?;
                    }
                    Ok(Expr::Call(name, args))
                } else if *self.cur() == Token::LBracket {
                    let mut idx = Vec::new();
                    while self.eat(&Token::LBracket) {
                        idx.push(self.expr()?);
                        self.expect(&Token::RBracket, "`]`")?;
                    }
                    Ok(Expr::Index(name, idx))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = r#"
        /* the motivating example, Figure 1-3 of the paper */
        float->float filter FIRFilter(float[N] weights, int N) {
            work push 1 pop 1 peek N {
                float sum = 0;
                for (int i = 0; i < N; i++) {
                    sum += weights[i] * peek(i);
                }
                push(sum);
                pop();
            }
        }
    "#;

    #[test]
    fn parses_the_fir_filter() {
        let p = parse(FIR).unwrap();
        assert_eq!(p.decls.len(), 1);
        let d = &p.decls[0];
        assert_eq!(d.name, "FIRFilter");
        assert_eq!(d.params.len(), 2);
        let StreamKind::Filter(f) = &d.kind else {
            panic!("expected filter")
        };
        assert_eq!(f.work.push, Some(Expr::Int(1)));
        assert_eq!(f.work.peek, Some(Expr::Var("N".into())));
        assert_eq!(f.work.body.stmts.len(), 4);
    }

    #[test]
    fn parses_pipeline_with_adds() {
        let p = parse(
            "void->void pipeline Main {
                add Source();
                add FIRFilter(w, 8);
                add Printer();
            }",
        )
        .unwrap();
        let StreamKind::Pipeline(b) = &p.decls[0].kind else {
            panic!()
        };
        assert_eq!(b.stmts.len(), 3);
        assert!(
            matches!(&b.stmts[1].1, Stmt::Add(StreamRef::Named { name, args })
            if name == "FIRFilter" && args.len() == 2)
        );
    }

    #[test]
    fn parses_splitjoin_with_loop_generated_children() {
        let p = parse(
            "float->float splitjoin Bank(int M) {
                split duplicate;
                for (int i = 0; i < M; i++) {
                    add Branch(M, i);
                }
                join roundrobin;
            }",
        )
        .unwrap();
        let StreamKind::SplitJoin(sj) = &p.decls[0].kind else {
            panic!()
        };
        assert_eq!(sj.split, SplitterAst::Duplicate);
        assert_eq!(sj.join, JoinerAst::RoundRobin(vec![]));
        assert_eq!(sj.body.stmts.len(), 1);
    }

    #[test]
    fn parses_weighted_roundrobin() {
        let p = parse(
            "float->float splitjoin S {
                split roundrobin(2, 1);
                add A(); add B();
                join roundrobin(1, 1);
            }",
        )
        .unwrap();
        let StreamKind::SplitJoin(sj) = &p.decls[0].kind else {
            panic!()
        };
        assert_eq!(
            sj.split,
            SplitterAst::RoundRobin(vec![Expr::Int(2), Expr::Int(1)])
        );
    }

    #[test]
    fn parses_feedbackloop() {
        let p = parse(
            "float->float feedbackloop NoiseShaper {
                join roundrobin(1, 1);
                body pipeline { add Adder(); add Quantizer(); }
                loop Delay();
                split roundrobin(1, 1);
                enqueue 0;
            }",
        )
        .unwrap();
        let StreamKind::FeedbackLoop(fb) = &p.decls[0].kind else {
            panic!()
        };
        assert_eq!(fb.enqueue, vec![Expr::Int(0)]);
        assert!(matches!(fb.body, StreamRef::Anonymous(_)));
        assert!(matches!(fb.loop_stream, StreamRef::Named { .. }));
    }

    #[test]
    fn parses_anonymous_typed_filter() {
        let p = parse(
            "void->void pipeline Main {
                add float->float filter { work push 1 pop 1 { push(pop()); } };
            }",
        )
        .unwrap();
        let StreamKind::Pipeline(b) = &p.decls[0].kind else {
            panic!()
        };
        let Stmt::Add(StreamRef::Anonymous(d)) = &b.stmts[0].1 else {
            panic!()
        };
        assert_eq!(d.input, DataType::Float);
        assert!(matches!(d.kind, StreamKind::Filter(_)));
    }

    #[test]
    fn operator_precedence() {
        let p = parse(
            "float->float filter F {
                work push 1 pop 1 { push(1 + 2 * 3 - 4 / 2); }
            }",
        )
        .unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!()
        };
        let Stmt::Expr(Expr::Push(e)) = &f.work.body.stmts[0].1 else {
            panic!()
        };
        // (1 + (2*3)) - (4/2)
        let Expr::Binary(BinOp::Sub, l, r) = e.as_ref() else {
            panic!("expected subtraction at top: {e:?}")
        };
        assert!(matches!(l.as_ref(), Expr::Binary(BinOp::Add, ..)));
        assert!(matches!(r.as_ref(), Expr::Binary(BinOp::Div, ..)));
    }

    #[test]
    fn unbraced_for_body() {
        let p = parse(
            "float->float filter F(int N) {
                work push 1 pop 1 peek N {
                    float sum = 0;
                    for (int i=0; i<N; i++)
                        sum += peek(i);
                    push(sum); pop();
                }
            }",
        )
        .unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!()
        };
        let (for_span, Stmt::For { body, .. }) = &f.work.body.stmts[1] else {
            panic!()
        };
        assert_eq!(body.stmts.len(), 1);
        // Every statement carries its own span, the unbraced body's too.
        assert_eq!((for_span.line, for_span.col), (4, 21));
        assert_eq!((body.stmts[0].0.line, body.stmts[0].0.col), (5, 25));
    }

    #[test]
    fn equality_ignores_statement_spans() {
        let flat = parse("float->float filter F { work pop 1 push 1 { push(pop()); } }").unwrap();
        let tall =
            parse("float->float filter F {\n work pop 1 push 1 {\n  push(pop());\n }\n}").unwrap();
        let span = |p: &Program| match &p.decls[0].kind {
            StreamKind::Filter(f) => f.work.body.stmts[0].0,
            _ => panic!("expected filter"),
        };
        assert_ne!(span(&flat), span(&tall));
        assert_eq!(flat, tall);
    }

    #[test]
    fn post_increment_in_push() {
        let p = parse(
            "void->float filter Src {
                float x;
                init { x = 0; }
                work push 1 { push(x++); }
            }",
        )
        .unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!()
        };
        let Stmt::Expr(Expr::Push(e)) = &f.work.body.stmts[0].1 else {
            panic!()
        };
        assert!(matches!(e.as_ref(), Expr::PostIncDec { inc: true, .. }));
    }

    #[test]
    fn modulo_and_index_expressions() {
        let p = parse(
            "float->float filter F {
                float[3] state;
                int index;
                work push 1 pop 1 {
                    push(state[(index + 2) % 3]);
                    index = index - 1;
                    if (index < 0) index = 2;
                    pop();
                }
            }",
        )
        .unwrap();
        assert!(matches!(p.decls[0].kind, StreamKind::Filter(_)));
    }

    #[test]
    fn nesting_is_budgeted_not_a_stack_overflow() {
        let program = |e: &str| format!("void->float filter F {{ work push 1 {{ push({e}); }} }}");
        let too_deep = |src: &str| {
            let err = parse(src).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 128 levels", "{err}");
            err.span
        };
        // Parentheses: 100 levels parse, the 100 000 that used to abort
        // `streamlinc` are an error at the parenthesis the budget ran out
        // on (the nest starts at column 43, inside a statement and a call).
        let parens = |n: usize| program(&format!("{}1{}", "(".repeat(n), ")".repeat(n)));
        assert!(parse(&parens(100)).is_ok());
        let at = too_deep(&parens(100_000));
        assert_eq!((at.line, at.col), (1, 43 + 123));
        // Calls, indices, unary chains and a left-deep operator chain nest
        // the tree just the same.
        too_deep(&program(&format!(
            "{}1{}",
            "abs(".repeat(150),
            ")".repeat(150)
        )));
        too_deep(&program(&format!(
            "{}0{}",
            "a[".repeat(150),
            "]".repeat(150)
        )));
        too_deep(&program(&format!("{}1", "- ".repeat(150))));
        too_deep(&program(&format!("1{}", " + 1".repeat(150))));
        assert!(parse(&program(&format!("1{}", " + 1".repeat(100)))).is_ok());
        // Statements and anonymous streams, four levels each.
        let ifs = |n: usize| {
            let nest = format!("{}x = 1;{}", "if (x) { ".repeat(n), " }".repeat(n));
            format!("void->float filter F {{ work push 1 {{ {nest} }} }}")
        };
        assert!(parse(&ifs(25)).is_ok());
        too_deep(&ifs(40));
        let pipes = |n: usize| {
            let nest = format!("{}add S();{}", "add pipeline { ".repeat(n), " };".repeat(n));
            format!("void->void pipeline Main {{ {nest} }}")
        };
        assert!(parse(&pipes(12)).is_ok());
        too_deep(&pipes(20));
    }

    #[test]
    fn missing_work_is_an_error() {
        let err = parse("float->float filter F { init { } }").unwrap_err();
        assert!(err.message.contains("no `work`"), "{err}");
    }

    #[test]
    fn missing_join_is_an_error() {
        let err = parse("float->float splitjoin S { split duplicate; add A(); }").unwrap_err();
        assert!(err.message.contains("no `join`"), "{err}");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("float->float filter F {\n  work push 1 { push(; }\n}").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn assignment_targets_must_be_lvalues() {
        let err = parse("float->float filter F { work push 1 pop 1 { pop() = 3; push(0); } }")
            .unwrap_err();
        assert!(err.message.contains("left-hand side"), "{err}");
    }

    #[test]
    fn two_dimensional_arrays() {
        let p = parse(
            "float->float filter F(int N) {
                float[2][4] w;
                work push 1 pop 1 { push(w[1][3]); pop(); }
            }",
        )
        .unwrap();
        let StreamKind::Filter(f) = &p.decls[0].kind else {
            panic!()
        };
        assert_eq!(f.fields[0].ty.dims.len(), 2);
    }
}
