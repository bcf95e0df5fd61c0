//! Lexer, parser and AST for the StreamIt dialect consumed by `streamlin`.
//!
//! The paper's input language is StreamIt (§2.1): programs are hierarchical
//! compositions of `filter`, `pipeline`, `splitjoin` and `feedbackloop`
//! streams; each filter declares `peek`/`pop`/`push` rates and a C-like
//! `work` function communicating through `peek(i)`, `pop()` and `push(v)`.
//! This crate implements the subset of the language exercised by the nine
//! benchmark applications of Appendix A (plus enough generality for new
//! programs): parameterized stream declarations, anonymous nested streams,
//! field/local declarations with array types, `for`/`while`/`if` control
//! flow, the arithmetic/logic operator set, math intrinsics, `init` and
//! `initWork`/`prework` phases, and feedback loops with `enqueue`.
//!
//! The grammar is parsed by a hand-written recursive-descent parser (no
//! parser-generator dependency) into the [`ast`] types. One crate reads
//! them: `streamlin-graph`, whose elaborator runs container bodies and
//! whose lowerer resolves every filter name to storage once; every later
//! pass (analysis, linear extraction in `streamlin-core`, the runtime
//! tiers) works on the lowered form, not on this tree.
//!
//! # Examples
//!
//! ```
//! let source = r#"
//!     float->float filter Doubler {
//!         work push 1 pop 1 { push(2 * pop()); }
//!     }
//! "#;
//! let program = streamlin_lang::parse(source).unwrap();
//! assert_eq!(program.decls.len(), 1);
//! assert_eq!(program.decls[0].name, "Doubler");
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::Program;
pub use parser::{parse, ParseError};
