//! Hierarchical stream-graph IR, elaboration and steady-state scheduling.
//!
//! This crate turns a parsed StreamIt program ([`streamlin_lang::Program`])
//! into the structures the analyses and the runtime consume:
//!
//! * [`value`] — the dynamic values of the dialect (ints, floats, booleans,
//!   arrays) and their operator semantics, shared by constant evaluation,
//!   the work-function interpreter and the linear extraction analysis.
//! * [`exec`] — the [`exec::Host`] protocol (tape access, printing, FLOP
//!   accounting) every evaluator drives, with [`exec::PureHost`] for the
//!   constant contexts of elaboration.
//! * [`ir`] — the elaborated hierarchical [`ir::Stream`] graph: concrete
//!   filter instances (with evaluated field values and I/O rates) composed
//!   by pipelines, splitjoins and feedbackloops, mirroring the StreamIt SIR
//!   the paper's compiler operates on (§4.4).
//! * [`lower`] — slot resolution, the only place a name becomes storage:
//!   every field, parameter and lexical local is assigned a slot at
//!   elaboration (shadowing resolved statically), and everything after it
//!   — the abstract walker [`absint`], the [`bytecode`] tier, and
//!   elaboration's own constant evaluation — walks the resolved tree over
//!   plain `Vec<Cell>` storage.
//! * [`absint`] — the one walker over that tree: the control skeleton of a
//!   work body, written once, with the values supplied by a
//!   [`absint::Domain`]. [`analyze`] (rates, lints, plumbing — the
//!   [`FilterFacts`] elaboration attaches to every filter) and linear
//!   extraction in `streamlin-core` are its analysis domains; its concrete
//!   domain is the reference evaluator ([`absint::exec`]), which the
//!   [`bytecode`] tier is held to.
//! * [`elaborate`] — instantiation of parameterized stream declarations:
//!   runs container bodies and filter `init` blocks under constant
//!   evaluation ([`lower::const_eval_expr`], [`elaborate::run_init`]),
//!   exactly like the StreamIt compiler resolves its graph at
//!   compile time (§2.1: "these rates must be resolvable at compile time"),
//!   and lowers each filter's work phases to their slot-resolved form.
//! * [`steady`] — the steady-state schedule solver: a stream becomes a flat
//!   SDF edge list (filters, splitters, joiners, feedback back edges) and
//!   one solver, [`steady::balance`], solves its balance equations with
//!   exact rationals — the same solver the runtime's schedule compiler
//!   calls — providing the repetition counts used by the cost model of the
//!   optimization-selection pass.
//! * [`stats`] — structural statistics for Table 5.2.
//!
//! # Examples
//!
//! ```
//! let program = streamlin_lang::parse(
//!     "void->void pipeline Main { add Src(); add Sink(); }
//!      void->float filter Src { work push 2 { push(1.0); push(2.0); } }
//!      float->void filter Sink { work pop 1 { println(pop()); } }",
//! )
//! .unwrap();
//! let graph = streamlin_graph::elaborate::elaborate(&program).unwrap();
//! let steady = streamlin_graph::steady::steady_state(&graph).unwrap();
//! // The top-level stream consumes and produces nothing.
//! assert_eq!(steady.io.pop, 0);
//! assert_eq!(steady.io.push, 0);
//! ```

pub mod absint;
pub mod analyze;
pub mod bytecode;
pub mod elaborate;
pub mod exec;
mod form;
pub mod ir;
pub mod linear;
pub mod lower;
pub mod stats;
pub mod steady;
pub mod value;

pub use analyze::{FilterFacts, RateCert};
pub use elaborate::{elaborate, ElabError};
pub use ir::{FilterInst, Joiner, Splitter, Stream};
pub use lower::{LoweredFilter, SlotStore};
pub use value::Value;
