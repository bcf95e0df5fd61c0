//! Execution engine for `streamlin` stream programs.
//!
//! This crate plays the role of the paper's uniprocessor backend plus its
//! runtime library (§5.1): it lowers an optimized stream
//! ([`streamlin_core::OptStream`]) to a flat graph of nodes connected by
//! FIFO channels and executes it until the program has produced a requested
//! number of outputs, measuring wall-clock time. Execution is generic over
//! [`streamlin_support::Tally`]: under [`measure::ExecMode::Measured`]
//! every floating-point operation is tallied through
//! [`streamlin_support::OpCounter`] (the DynamoRIO substitute); under
//! [`measure::ExecMode::Fast`] the same engines monomorphize over
//! [`streamlin_support::NoCount`] — bit-identical outputs, no accounting,
//! vectorized linear kernels ([`linear_exec::MatMulStrategy::Simd`]).
//!
//! Node executors:
//!
//! * **original filters** run in the slot-resolved work-function
//!   interpreter ([`streamlin_graph::lower`], with a tape-connected
//!   host): storage resolved to `Vec<Cell>` slots at elaboration, no name
//!   hashing on the firing path;
//! * **linear nodes** run as direct matrix-vector products with a choice of
//!   [`linear_exec::MatMulStrategy`] — the default zero-skipping unrolled
//!   expressions of the paper's code generator (§5.2), the cache-blocked
//!   dense kernel standing in for ATLAS (§5.4) or the vectorized tier;
//! * **frequency nodes** and **redundancy nodes** wrap the executors from
//!   `streamlin-core` (plus the decimator stage for `pop > 1`);
//! * **splitters/joiners** move items according to their weights.
//!
//! Every program runs under a static schedule, as in the paper (§2.1):
//! [`plan`] compiles the steady-state solution of the balance equations
//! into a fixed firing sequence — an init phase for peek prologues and
//! `initWork`, then one repeated steady cycle — with exactly-sized
//! [`ring`] buffers in a single slab, batching consecutive linear-node
//! firings into blocked multiplies. A feedback loop is scheduled from the
//! items it enqueues; one that enqueues too few is a compile error.
//!
//! The **data-driven engine** ([`engine::Engine`]: any node with enough
//! input and bounded output backlog may fire) runs no program on its own.
//! It is the reference every equivalence suite holds the plan to: a
//! deterministic stream program prints the same values under every valid
//! schedule.
//!
//! On top of the static plan sits the **pipeline-parallel executor**
//! ([`spec::RunSpec::threads`], `streamlinc --threads N`): [`partition`]
//! cuts the planned graph into cost-balanced contiguous stages and
//! [`parallel`] runs each stage's slice of the schedule on its own
//! pooled worker thread ([`pool`] keeps the threads across runs), handing
//! items across boundaries through the lock-free SPSC rings of
//! [`ring::SharedRings`] — printed outputs stay bit-identical to the
//! single-threaded plan for every thread count, and tallies/firing
//! counts are identical across thread counts.
//!
//! Execution stops when the requested number of program outputs (captured
//! `print`/`println` values) has been produced. Every executor shares the
//! reference's firing semantics, so their printed output is bit-identical.
//!
//! Telemetry and fault drills are opt-in *values*, not type parameters:
//! everything above takes an `Option<&mut Recorder>` and the pipeline
//! executor the spec's `Option<InjectFaults>`, consulted once per plan
//! step or per stall behind `if let Some`. Production runs pass `None`
//! (no clock read — bit-identical outputs, unchanged throughput), while
//! [`spec::RunSpec::run_recorded`] hands down a
//! [`streamlin_support::Recorder`] that captures compile-phase spans,
//! per-stage busy/stall time, ring occupancy high-water marks and
//! full/empty stall counts, coordinator quantum waits, and per-node
//! firing costs against the cost model — exported as a human summary
//! (`streamlinc --metrics`) or a Chrome trace-event timeline
//! (`--trace-out`, validated by [`telemetry::validate_trace`]).
//!
//! One value, [`spec::RunSpec`], says how a program is compiled and run;
//! [`session`] is the spine it drives: [`session::compile`] (flatten →
//! plan → partition) sees only the spec's [`spec::PlanSpec`],
//! [`session::open`] starts a resident [`session::Session`] on the
//! result, and a one-shot run is *open, read n, close*.
//!
//! # Examples
//!
//! ```
//! use streamlin_core::opt::OptStream;
//! use streamlin_runtime::RunSpec;
//!
//! let p = streamlin_lang::parse(
//!     "void->void pipeline Main { add S(); add K(); }
//!      void->float filter S { float x; work push 1 { push(x++); } }
//!      float->void filter K { work pop 1 { println(2 * pop()); } }",
//! )
//! .unwrap();
//! let g = streamlin_graph::elaborate(&p).unwrap();
//! let opt = OptStream::from_graph(&g);
//! let prof = RunSpec::default().run(&opt, 5).unwrap();
//! assert_eq!(prof.outputs, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod engine;
pub mod flat;
pub mod linear_exec;
pub mod measure;
pub mod parallel;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod ring;
pub mod session;
pub mod spec;
pub mod telemetry;

pub use engine::{Engine, RunError};
pub use linear_exec::MatMulStrategy;
pub use measure::{ExecMode, Profile, ProfileError};
pub use parallel::{PipelineOutcome, PipelineSession, CYCLE_QUANTUM};
pub use partition::{partition, Partition};
pub use plan::{ExecPlan, PlanEngine, PlanError};
pub use session::{compile, compile_source, front_end, open, Compiled, Session};
pub use spec::{ExecSpec, PlanSpec, RunSpec, Tier, KNOBS};
pub use telemetry::{validate_trace, TraceShape};
