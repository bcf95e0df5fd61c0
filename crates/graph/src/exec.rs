//! The execution protocol shared by every evaluator of the slot IR.
//!
//! [`Host`] is the environment-facing side of a firing — tape access,
//! printing, and the DynamoRIO-substitute FLOP accounting (integer index
//! arithmetic is free, matching the paper's FLOP metric). The reference
//! tier (the abstract walker's concrete domain, [`crate::absint::exec`])
//! and the bytecode tier ([`crate::bytecode`]) both drive it; `streamlin-runtime` implements it
//! over its channels, and [`PureHost`] is the constant-context host that
//! elaboration uses for rates, dimensions, container bodies and `init`
//! blocks — mirroring how the StreamIt compiler resolves rates and weights
//! at compile time (§2.1).

use crate::value::{EvalError, Value};

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
    /// The items `peek` can read, when they are one slice: `peek(i)` is
    /// `tape()[i]` for every `i` inside it. `None` (the default) sends
    /// every read through [`Host::peek`].
    fn tape(&self) -> Option<&[f64]> {
        None
    }
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

/// A small inline buffer for evaluated array indices. Benchmark arrays
/// are at most 2-D, so index evaluation never allocates; deeper shapes
/// spill to the heap.
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

/// Default fuel: generous enough for every benchmark's `init` (the largest
/// is the 4412-element Radar setup) while still bounding runaway loops.
pub const DEFAULT_FUEL: u64 = 200_000_000;
