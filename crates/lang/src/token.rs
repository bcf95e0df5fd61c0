//! Tokens and source positions for the StreamIt dialect.
//!
//! A token borrows its text from the source it was read from: an
//! identifier is `Ident(&'src str)`, and every [`Spanned`] token keeps the
//! slice it was lexed from, so neither the lexer nor the parser allocates
//! per token. A name becomes a `String` once, in the AST node that holds
//! it.

/// A position in the source text, for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'src> {
    // Literals and names
    Int(i64),
    Float(f64),
    Ident(&'src str),

    // Type keywords
    KwVoid,
    KwFloat,
    KwInt,
    KwBoolean,

    // Stream keywords
    KwFilter,
    KwPipeline,
    KwSplitJoin,
    KwFeedbackLoop,
    KwAdd,
    KwSplit,
    KwJoin,
    KwBody,
    KwLoop,
    KwEnqueue,
    KwDuplicate,
    KwRoundRobin,

    // Filter keywords
    KwWork,
    KwInit,
    KwInitWork,
    KwPeek,
    KwPop,
    KwPush,

    // Statement keywords
    KwIf,
    KwElse,
    KwFor,
    KwWhile,
    KwReturn,
    KwTrue,
    KwFalse,
    KwPi,

    // Punctuation
    Arrow, // ->
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,

    // Operators
    Assign,     // =
    PlusAssign, // +=
    MinusAssign,
    StarAssign,
    SlashAssign,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,

    /// End of input.
    Eof,
}

impl Token<'_> {
    /// Keyword lookup for an identifier-shaped lexeme.
    pub fn keyword(s: &str) -> Option<Token<'static>> {
        Some(match s {
            "void" => Token::KwVoid,
            "float" => Token::KwFloat,
            "int" => Token::KwInt,
            "boolean" => Token::KwBoolean,
            "filter" => Token::KwFilter,
            "pipeline" => Token::KwPipeline,
            "splitjoin" => Token::KwSplitJoin,
            "feedbackloop" => Token::KwFeedbackLoop,
            "add" => Token::KwAdd,
            "split" => Token::KwSplit,
            "join" => Token::KwJoin,
            "body" => Token::KwBody,
            "loop" => Token::KwLoop,
            "enqueue" => Token::KwEnqueue,
            "duplicate" => Token::KwDuplicate,
            "roundrobin" => Token::KwRoundRobin,
            "work" => Token::KwWork,
            "init" => Token::KwInit,
            // Both spellings appear in the literature; the thesis uses
            // `initWork`, StreamIt 2.x uses `prework`.
            "initWork" => Token::KwInitWork,
            "prework" => Token::KwInitWork,
            "peek" => Token::KwPeek,
            "pop" => Token::KwPop,
            "push" => Token::KwPush,
            "if" => Token::KwIf,
            "else" => Token::KwElse,
            "for" => Token::KwFor,
            "while" => Token::KwWhile,
            "return" => Token::KwReturn,
            "true" => Token::KwTrue,
            "false" => Token::KwFalse,
            "pi" => Token::KwPi,
            _ => return None,
        })
    }
}

/// A token paired with its source position and text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'src> {
    /// The token.
    pub token: Token<'src>,
    /// Where it begins.
    pub span: Span,
    /// The source text it was read from (empty for [`Token::Eof`]).
    pub text: &'src str,
}

impl Spanned<'_> {
    /// The token as written, for parse errors: ``keyword `work` ``,
    /// ``identifier `x` ``, ``integer literal 42``, ``float literal 2.50``,
    /// `` `;` `` or `end of input`.
    pub fn describe(&self) -> String {
        let text = self.text;
        match self.token {
            Token::Int(_) => format!("integer literal {text}"),
            Token::Float(_) => format!("float literal {text}"),
            Token::Ident(_) => format!("identifier `{text}`"),
            Token::Eof => "end of input".to_string(),
            _ if text.starts_with(|c: char| c.is_ascii_alphabetic()) => {
                format!("keyword `{text}`")
            }
            _ => format!("`{text}`"),
        }
    }
}
