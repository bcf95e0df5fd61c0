//! The front end's observable output, pinned: the token stream of every
//! program the repository ships, and the text and position of every kind
//! of lexical and syntactic error.
//!
//! `tests/golden/tokens.txt` was generated by the lexer that scanned a
//! `Vec<char>`, before it was rewritten over bytes. One line per source —
//! the nine benchmarks at their default sizes, `fir(1024)` and
//! `assets/*.str` — holds the token count and an FNV-1a hash over every
//! token's kind, its text as written, its line and column, and the bits of
//! a numeric literal's value. (That lexer kept no text: the generating
//! test cut each token's text from the source between its span and the
//! next token's.) Never regenerate it to make a change pass; on a mismatch
//! the actual transcript is written next to the test binary's temp dir for
//! diffing.
//!
//! The error table was generated on the same commit; the rows this
//! lexer changed are the spans of bad characters and malformed literals
//! (they used to point one character past the offender, or at the
//! literal's end) and the way a parse error spells the token it found
//! (``found `;` `` and ``found keyword `work` ``, not `found Semi` and
//! `found KwWork`).

use proptest::prelude::TestRng;
use streamlin::benchmarks;
use streamlin::lang::lexer::tokenize;
use streamlin::lang::parse;
use streamlin::lang::token::{Span, Token};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Every source the repository ships, by name.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = benchmarks::all_default()
        .iter()
        .map(|b| (b.name().to_string(), b.source().to_string()))
        .collect();
    out.push(("FIR1024".into(), benchmarks::fir(1024).source().to_string()));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("assets");
    let mut assets: Vec<_> = std::fs::read_dir(&dir)
        .expect("read assets/")
        .map(|e| e.expect("assets/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "str"))
        .collect();
    assets.sort();
    for path in assets {
        let name = format!("assets/{}", path.file_name().unwrap().to_string_lossy());
        out.push((name, std::fs::read_to_string(&path).expect("read asset")));
    }
    out
}

fn token_line(name: &str, src: &str) -> String {
    let toks = tokenize(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut h = Fnv::new();
    for t in &toks {
        let kind = format!("{:?}", t.token);
        let kind = kind.split('(').next().unwrap();
        let bits = match t.token {
            Token::Int(v) => v as u64,
            Token::Float(v) => v.to_bits(),
            _ => 0,
        };
        h.bytes(kind.as_bytes());
        h.bytes(&[0]);
        h.bytes(t.text.as_bytes());
        h.bytes(&[0]);
        h.word(u64::from(t.span.line));
        h.word(u64::from(t.span.col));
        h.word(bits);
    }
    format!("{name} tokens={} hash={:016x}\n", toks.len(), h.0)
}

#[test]
fn token_streams_match_the_golden() {
    let actual: String = sources()
        .iter()
        .map(|(name, src)| token_line(name, src))
        .collect();
    let golden = include_str!("golden/tokens.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tokens.actual.txt");
        std::fs::write(&path, &actual).expect("write actual transcript");
        panic!(
            "token transcript differs from tests/golden/tokens.txt; actual written to {}",
            path.display()
        );
    }
}

/// A filter whose one statement is `push(<e>);`, `<e>` at line 1,
/// column 43.
fn in_push(e: &str) -> String {
    format!("void->float filter F {{ work push 1 {{ push({e}); }} }}")
}

/// What the front end says about `src`: the lexer's error if it has one,
/// else the parser's.
fn first_error(src: &str) -> String {
    match tokenize(src) {
        Err(e) => e.to_string(),
        Ok(_) => parse(src).expect_err("the program parses").to_string(),
    }
}

/// Every `LexError`, and one parse error per place the parser describes
/// the token it found, with its text and position.
#[test]
fn every_front_end_error_has_its_text_and_position() {
    let cases: Vec<(String, &str)> = vec![
        ("/* never ends".into(), "lex error at 1:1: unterminated block comment"),
        ("a\n  /* é\n never ends".into(), "lex error at 2:3: unterminated block comment"),
        (in_push("99999999999999999999"), "lex error at 1:43: malformed integer literal `99999999999999999999`"),
        (in_push("1.5e+"), "lex error at 1:43: malformed float literal `1.5e+`"),
        (in_push("1e-"), "lex error at 1:43: malformed float literal `1e-`"),
        (in_push("2.5E+x"), "lex error at 1:43: malformed float literal `2.5E+`"),
        (in_push("1 $ 2"), "lex error at 1:45: unexpected character `$`"),
        (in_push("a . b"), "lex error at 1:45: unexpected character `.`"),
        (in_push("1..2"), "lex error at 1:44: unexpected character `.`"),
        (in_push("#"), "lex error at 1:43: unexpected character `#`"),
        (in_push("@"), "lex error at 1:43: unexpected character `@`"),
        (in_push("\0"), "lex error at 1:43: unexpected character `\0`"),
        (in_push("é"), "lex error at 1:43: unexpected character `é`"),
        (in_push("€"), "lex error at 1:43: unexpected character `€`"),
        (in_push("😀"), "lex error at 1:43: unexpected character `😀`"),
        ("/* é */ $".into(), "lex error at 1:9: unexpected character `$`"),
        ("// é\n\t$".into(), "lex error at 2:2: unexpected character `$`"),
        ("a\r\n$".into(), "lex error at 2:1: unexpected character `$`"),
        ("a\u{a0}$".into(), "lex error at 1:3: unexpected character `$`"),
        ("a\u{2028}$".into(), "lex error at 1:3: unexpected character `$`"),
        ("\u{feff}a".into(), "lex error at 1:1: unexpected character `\u{feff}`"),
        ("void->float filter F { work push 1 { push(1) } }".into(), "parse error at 1:46: expected `;` after statement, found `}`"),
        ("float->float filter F(int) { }".into(), "parse error at 1:26: expected parameter name, found `)`"),
        ("filter F { }".into(), "parse error at 1:1: expected a type, found keyword `filter`"),
        ("float->float work { }".into(), "parse error at 1:14: expected `filter`, `pipeline`, `splitjoin` or `feedbackloop`, found keyword `work`"),
        ("float->float filter F { ; }".into(), "parse error at 1:25: expected a field, `init`, `work` or `initWork` in filter body, found `;`"),
        ("float->float filter F { work pop 1 ; }".into(), "parse error at 1:36: expected rate declaration or `{` after `work`, found `;`"),
        ("float->float splitjoin S { split join; }".into(), "parse error at 1:34: expected `duplicate` or `roundrobin`, found keyword `join`"),
        ("float->float splitjoin S { split duplicate; join duplicate; }".into(), "parse error at 1:50: expected `roundrobin` joiner, found keyword `duplicate`"),
        ("float->float feedbackloop L { add X(); }".into(), "parse error at 1:31: expected `join`, `body`, `loop`, `split` or `enqueue`, found keyword `add`"),
        ("void->void pipeline P { add 1; }".into(), "parse error at 1:29: expected a stream reference, found integer literal 1"),
        (in_push(";"), "parse error at 1:43: expected an expression, found `;`"),
        (in_push("}"), "parse error at 1:43: expected an expression, found `}`"),
        (in_push("work"), "parse error at 1:43: expected an expression, found keyword `work`"),
        (in_push(""), "parse error at 1:43: expected an expression, found `)`"),
        (in_push("->"), "parse error at 1:43: expected an expression, found `->`"),
        (in_push("<<"), "parse error at 1:43: expected an expression, found `<<`"),
        ("void->float filter F {".into(), "parse error at 1:23: expected a field, `init`, `work` or `initWork` in filter body, found end of input"),
        ("void->void pipeline P { add 2.50; }".into(), "parse error at 1:29: expected a stream reference, found float literal 2.50"),
        ("void->void pipeline P { add 1e3; }".into(), "parse error at 1:29: expected a stream reference, found float literal 1e3"),
        ("void->void pipeline P { add prework; }".into(), "parse error at 1:29: expected a stream reference, found keyword `prework`"),
        ("float->float filter F { x }".into(), "parse error at 1:25: expected a field, `init`, `work` or `initWork` in filter body, found identifier `x`"),
        (in_push("0x10"), "parse error at 1:44: expected `)`, found identifier `x10`"),
    ];
    let mut wrong = Vec::new();
    for (src, want) in &cases {
        let got = first_error(src);
        if got != *want {
            wrong.push(format!("    ({src:?}, {got:?}),"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// Whether `span` lies inside `src`: on one of its lines, at most one
/// column past the line's last character.
fn inside(src: &str, span: Span) -> bool {
    let Some(line) = src.split('\n').nth((span.line as usize).wrapping_sub(1)) else {
        return false;
    };
    span.col >= 1 && span.col as usize <= line.chars().count() + 1
}

/// The byte offset of a (line, column in characters) position.
fn offset(src: &str, span: Span) -> usize {
    let line_start: usize = src
        .split_inclusive('\n')
        .take(span.line as usize - 1)
        .map(str::len)
        .sum();
    src[line_start..]
        .char_indices()
        .nth(span.col as usize - 1)
        .map_or(src.len(), |(i, _)| line_start + i)
}

/// One random edit of `src`: at the token level (delete, duplicate,
/// swap, splice a run elsewhere) or the byte level (a NUL, a CR, a
/// multi-byte character, U+00A0, truncation), always on a character
/// boundary.
fn mutate(src: &str, rng: &mut TestRng) -> String {
    let toks = tokenize(src).map(|t| {
        t.iter()
            .map(|t| {
                let at = t.text.as_ptr() as usize - src.as_ptr() as usize;
                at..at + t.text.len()
            })
            .collect::<Vec<_>>()
    });
    let boundary = |rng: &mut TestRng| loop {
        let at = rng.usize_below(src.len() + 1);
        if src.is_char_boundary(at) {
            return at;
        }
    };
    let insert = |at: usize, text: &str| format!("{}{text}{}", &src[..at], &src[at..]);
    match (rng.usize_below(9), toks) {
        (op @ 0..=3, Ok(toks)) if toks.len() > 2 => {
            let pick = |rng: &mut TestRng| toks[rng.usize_below(toks.len() - 1)].clone();
            let (a, b) = (pick(rng), pick(rng));
            let (a, b) = if a.start <= b.start { (a, b) } else { (b, a) };
            match op {
                0 => format!("{}{}", &src[..a.start], &src[a.end..]),
                1 => insert(a.end, &format!(" {}", &src[a.clone()])),
                2 if a.end <= b.start => format!(
                    "{}{}{}{}{}",
                    &src[..a.start],
                    &src[b.clone()],
                    &src[a.end..b.start],
                    &src[a],
                    &src[b.end..]
                ),
                _ => insert(
                    b.end,
                    &format!(" {} ", &src[a.start..b.end.min(a.end + 40)]),
                ),
            }
        }
        (4, _) => insert(boundary(rng), "\0"),
        (5, _) => insert(boundary(rng), "\r"),
        (6, _) => insert(boundary(rng), ["é", "€", "😀"][rng.usize_below(3)]),
        (7, _) => insert(boundary(rng), "\u{a0}"),
        _ => src[..boundary(rng)].to_string(),
    }
}

/// Seeded front-end fuzzer: mutated benchmark sources never panic the
/// lexer or the parser, every error points inside the text, and every
/// token's span locates its own text.
#[test]
fn mutated_sources_never_panic_and_errors_point_inside_them() {
    let sources: Vec<String> = benchmarks::all_default()
        .iter()
        .map(|b| b.source().to_string())
        .collect();
    let mut rng = TestRng::new(0x5eed_f00d);
    // Cases that fail to lex, fail to parse, and parse.
    let mut outcomes = [0; 3];
    for case in 0..1500 {
        let mut src = sources[case % sources.len()].clone();
        for _ in 0..=rng.usize_below(3) {
            src = mutate(&src, &mut rng);
        }
        let outcome = std::panic::catch_unwind(|| (tokenize(&src), parse(&src).err()));
        let Ok((lexed, parse_error)) = outcome else {
            panic!("case {case}: the front end panicked on\n{src}");
        };
        match &lexed {
            Ok(toks) => {
                for t in toks {
                    let at = t.text.as_ptr() as usize - src.as_ptr() as usize;
                    assert_eq!(offset(&src, t.span), at, "case {case}: {t:?} in\n{src}");
                }
            }
            Err(e) => assert!(inside(&src, e.span), "case {case}: {e} outside\n{src}"),
        }
        if let Some(e) = &parse_error {
            assert!(inside(&src, e.span), "case {case}: {e} outside\n{src}");
        }
        outcomes[match (lexed.is_ok(), parse_error.is_some()) {
            (false, _) => 0,
            (true, true) => 1,
            (true, false) => 2,
        }] += 1;
    }
    println!("lex errors, parse errors, parsed: {outcomes:?}");
    assert!(outcomes.iter().all(|&n| n >= 100), "{outcomes:?}");
}
