//! Hand-written lexer for the StreamIt dialect.
//!
//! One pass over the source's bytes. Every token the language has is
//! ASCII, so a token starts and ends on a character boundary and its text
//! is a slice of the source (`Token::Ident(&'src str)`, [`Spanned::text`]):
//! keywords are matched on the slice and numbers parsed from it, and the
//! token vector is sized from the text's length, so tokenizing allocates
//! per program, not per character or per token. Non-ASCII characters can
//! only be whitespace (`char::is_whitespace`, e.g. U+00A0), part of a
//! comment, or an error.
//!
//! A [`Span`] is a line and a column counted in characters: the lexer
//! keeps the byte offset where the current line starts and the number of
//! UTF-8 continuation bytes since then, so a multi-byte character moves the
//! column by one. An error points at the first character of what it
//! names: the bad character, the malformed literal, the `/*` that is never
//! closed.

use crate::token::{Span, Spanned, Token};

/// A lexical error with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Explanation of the problem.
    pub message: String,
    /// Where it occurred.
    pub span: Span,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Source bytes per token the token vector is first sized for. The
/// shipped programs have 4.1 to 4.6, so theirs is allocated once; every
/// token but `Eof` takes at least a byte, so two doublings cover any text.
const BYTES_PER_TOKEN: usize = 4;

/// Tokenizes the whole input, appending a final [`Token::Eof`].
///
/// Line (`//`) and block (`/* */`) comments are skipped.
///
/// # Errors
///
/// Returns a [`LexError`] for malformed numeric literals, unterminated
/// block comments, or characters outside the language.
///
/// # Examples
///
/// ```
/// use streamlin_lang::lexer::tokenize;
/// use streamlin_lang::token::Token;
/// let toks = tokenize("x += 2;").unwrap();
/// assert_eq!(toks[0].token, Token::Ident("x"));
/// assert_eq!(toks[1].token, Token::PlusAssign);
/// assert_eq!(toks[1].text, "+=");
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lexer = Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
        continuations: 0,
    };
    let mut out = Vec::with_capacity(src.len() / BYTES_PER_TOKEN + 1);
    loop {
        lexer.skip_trivia()?;
        let start = lexer.pos;
        let span = lexer.span();
        let token = match lexer.bytes.get(start) {
            None => Token::Eof,
            Some(b'0'..=b'9') => lexer.number(span)?,
            Some(b'.') if lexer.at(1).is_ascii_digit() => lexer.number(span)?,
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => lexer.ident(),
            Some(&b) => lexer.symbol(b, span)?,
        };
        out.push(Spanned {
            token,
            span,
            text: &src[start..lexer.pos],
        });
        if token == Token::Eof {
            return Ok(out);
        }
    }
}

struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    /// Byte offset of the next unread byte.
    pos: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    /// UTF-8 continuation bytes between `line_start` and `pos`.
    continuations: usize,
}

impl<'src> Lexer<'src> {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: (self.pos - self.line_start - self.continuations + 1) as u32,
        }
    }

    /// The byte `ahead` places past `pos`, or NUL past the end.
    fn at(&self, ahead: usize) -> u8 {
        self.bytes.get(self.pos + ahead).copied().unwrap_or(0)
    }

    /// Moves `pos` to `to`, a character boundary, counting the lines and
    /// the characters it passes.
    fn advance_to(&mut self, to: usize) {
        for (i, &b) in self.bytes[self.pos..to].iter().enumerate() {
            if b == b'\n' {
                self.line += 1;
                self.line_start = self.pos + i + 1;
                self.continuations = 0;
            } else if b & 0xC0 == 0x80 {
                self.continuations += 1;
            }
        }
        self.pos = to;
    }

    /// The character at `pos`.
    fn char(&self) -> char {
        self.src[self.pos..]
            .chars()
            .next()
            .expect("a character at pos")
    }

    /// Skips whitespace (`char::is_whitespace`) and comments.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\r' | 0x0B | 0x0C => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                    self.continuations = 0;
                }
                b'/' if self.at(1) == b'/' => {
                    let end = self.src[self.pos..]
                        .find('\n')
                        .map_or(self.src.len(), |i| self.pos + i + 1);
                    self.advance_to(end);
                }
                b'/' if self.at(1) == b'*' => {
                    let Some(len) = self.src[self.pos + 2..].find("*/") else {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            span: self.span(),
                        });
                    };
                    self.advance_to(self.pos + 2 + len + 2);
                }
                0x80.. if self.char().is_whitespace() => {
                    self.advance_to(self.pos + self.char().len_utf8());
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Digits, at most one `.` (not one that starts `..`), and an exponent
    /// whose `e` is followed by a digit or a sign.
    fn number(&mut self, span: Span) -> Result<Token<'src>, LexError> {
        let start = self.pos;
        let mut is_float = false;
        loop {
            match self.at(0) {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !is_float && self.at(1) != b'.' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'e' | b'E' if matches!(self.at(1), b'0'..=b'9' | b'+' | b'-') => {
                    is_float = true;
                    self.pos += 2;
                    while self.at(0).is_ascii_digit() {
                        self.pos += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        let malformed = |kind: &str| LexError {
            message: format!("malformed {kind} literal `{text}`"),
            span,
        };
        if is_float {
            text.parse()
                .map(Token::Float)
                .map_err(|_| malformed("float"))
        } else {
            text.parse()
                .map(Token::Int)
                .map_err(|_| malformed("integer"))
        }
    }

    fn ident(&mut self) -> Token<'src> {
        let start = self.pos;
        while matches!(self.at(0), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        Token::keyword(text).unwrap_or(Token::Ident(text))
    }

    /// An operator or punctuation starting with `b`; the longest spelling
    /// wins (`+=` over `+`).
    fn symbol(&mut self, b: u8, span: Span) -> Result<Token<'src>, LexError> {
        let (token, len) = match (b, self.at(1)) {
            (b'(', _) => (Token::LParen, 1),
            (b')', _) => (Token::RParen, 1),
            (b'{', _) => (Token::LBrace, 1),
            (b'}', _) => (Token::RBrace, 1),
            (b'[', _) => (Token::LBracket, 1),
            (b']', _) => (Token::RBracket, 1),
            (b',', _) => (Token::Comma, 1),
            (b';', _) => (Token::Semi, 1),
            (b'%', _) => (Token::Percent, 1),
            (b'^', _) => (Token::Caret, 1),
            (b'+', b'+') => (Token::PlusPlus, 2),
            (b'+', b'=') => (Token::PlusAssign, 2),
            (b'+', _) => (Token::Plus, 1),
            (b'-', b'-') => (Token::MinusMinus, 2),
            (b'-', b'=') => (Token::MinusAssign, 2),
            (b'-', b'>') => (Token::Arrow, 2),
            (b'-', _) => (Token::Minus, 1),
            (b'*', b'=') => (Token::StarAssign, 2),
            (b'*', _) => (Token::Star, 1),
            (b'/', b'=') => (Token::SlashAssign, 2),
            (b'/', _) => (Token::Slash, 1),
            (b'=', b'=') => (Token::EqEq, 2),
            (b'=', _) => (Token::Assign, 1),
            (b'!', b'=') => (Token::NotEq, 2),
            (b'!', _) => (Token::Not, 1),
            (b'<', b'=') => (Token::Le, 2),
            (b'<', b'<') => (Token::Shl, 2),
            (b'<', _) => (Token::Lt, 1),
            (b'>', b'=') => (Token::Ge, 2),
            (b'>', b'>') => (Token::Shr, 2),
            (b'>', _) => (Token::Gt, 1),
            (b'&', b'&') => (Token::AndAnd, 2),
            (b'&', _) => (Token::Amp, 1),
            (b'|', b'|') => (Token::OrOr, 2),
            (b'|', _) => (Token::Pipe, 1),
            _ => {
                return Err(LexError {
                    message: format!("unexpected character `{}`", self.char()),
                    span,
                })
            }
        };
        self.pos += len;
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("float filter Foo"),
            vec![
                Token::KwFloat,
                Token::KwFilter,
                Token::Ident("Foo"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn prework_aliases_init_work() {
        assert_eq!(toks("prework")[0], Token::KwInitWork);
        assert_eq!(toks("initWork")[0], Token::KwInitWork);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42")[0], Token::Int(42));
        assert_eq!(toks("2.5")[0], Token::Float(2.5));
        assert_eq!(toks("1e3")[0], Token::Float(1000.0));
        assert_eq!(toks("2.5e-2")[0], Token::Float(0.025));
        assert_eq!(toks(".5")[0], Token::Float(0.5));
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a->b"),
            vec![
                Token::Ident("a"),
                Token::Arrow,
                Token::Ident("b"),
                Token::Eof
            ]
        );
        assert_eq!(toks("++ -- += -= *= /= == != <= >= << >> && ||").len(), 15);
        assert_eq!(toks("i++")[1], Token::PlusPlus);
        assert_eq!(toks("a - -b")[1], Token::Minus);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line\n /* block \n many lines */ b"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn spans_track_lines() {
        let t = tokenize("a\n  b").unwrap();
        assert_eq!(t[0].span.line, 1);
        assert_eq!(t[1].span.line, 2);
        assert_eq!(t[1].span.col, 3);
    }

    #[test]
    fn bad_character_is_an_error() {
        let err = tokenize("a $ b").unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.span, Span { line: 1, col: 3 });
    }

    #[test]
    fn tokens_borrow_their_text() {
        let src = "prework x1 2.50 <<=";
        let t = tokenize(src).unwrap();
        let texts: Vec<&str> = t.iter().map(|s| s.text).collect();
        assert_eq!(texts, ["prework", "x1", "2.50", "<<", "=", ""]);
        assert_eq!(t[1].token, Token::Ident("x1"));
        assert!(std::ptr::eq(t[1].text, &src[8..10]));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` and U+00A0 are two bytes each, `€` three, `😀` four.
        let t = tokenize("/* é€😀 */ a\u{a0}b\n//😀\n  c").unwrap();
        let spans: Vec<(u32, u32)> = t.iter().map(|s| (s.span.line, s.span.col)).collect();
        assert_eq!(spans, [(1, 11), (1, 13), (3, 3), (3, 4)]);
    }
}
