//! Shared support utilities for the `streamlin` workspace.
//!
//! This crate is the foundation of the reproduction of *Linear Analysis and
//! Optimization of Stream Programs* (Lamb, 2003). It provides:
//!
//! * [`flops`] — floating-point operation accounting. The paper measures its
//!   optimizations in retired IA-32 floating-point instructions (counted with
//!   a DynamoRIO client, Table 5.1). Our substitute is the [`flops::Tally`]
//!   trait, which every arithmetic kernel in the workspace is generic over:
//!   instantiated with [`flops::CountOps`] (= [`flops::OpCounter`]) the
//!   executed additions, multiplications, divisions and transcendental calls
//!   are tallied at the exact point they happen; instantiated with
//!   [`flops::NoCount`] the same kernels monomorphize to bare, vectorizable
//!   arithmetic with bit-identical results.
//! * [`probe`] — runtime telemetry as an opt-in value: the compile pipeline
//!   and the engines take an `Option<&mut probe::Recorder>`; `None` skips
//!   every record site (bit-identical outputs, no clocks), while a
//!   [`probe::Recorder`] captures compile-phase spans, per-stage
//!   busy/stall time, ring occupancy and per-node firing costs, and
//!   exports a Chrome trace-event JSON timeline.
//! * [`fault`] — deterministic fault injection, the same way: a run's spec
//!   carries an `Option<fault::InjectFaults>`; `None` is production, while
//!   an [`fault::InjectFaults`] perturbs seeded, keyed sites (worker
//!   panics, ring delays, pool refusals, stage wedges) so the
//!   supervisor's teardown and fallback paths can be exercised
//!   reproducibly.
//! * [`json`] — a minimal JSON reader and writer (traces, the `streamlind`
//!   wire protocol) without a serialization dependency.
//! * [`fmt_f64`] — the shortest round-trip `f64` writer behind every
//!   number the workspace prints, byte-identical to `format!("{v}")`
//!   without going through `std::fmt`.
//! * [`ratio`] — exact rational arithmetic used by the steady-state scheduler.
//! * [`num`] — gcd/lcm, powers of two and approximate float comparison.
//!
//! # Examples
//!
//! ```
//! use streamlin_support::flops::OpCounter;
//!
//! let mut ops = OpCounter::new();
//! let y = ops.mul(3.0, 4.0);
//! let z = ops.add(y, 1.0);
//! assert_eq!(z, 13.0);
//! assert_eq!(ops.mults(), 1);
//! assert_eq!(ops.flops(), 2);
//! ```

pub mod fault;
pub mod flops;
pub mod fmt_f64;
pub mod json;
pub mod num;
pub mod probe;
pub mod ratio;

pub use fault::{FaultAction, InjectFaults};
pub use flops::{CountOps, NoCount, OpCounter, Tally};
pub use probe::{Recorder, StallKind};
pub use ratio::Ratio;
