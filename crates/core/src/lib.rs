//! The linear analysis and optimization passes of `streamlin` — the primary
//! contribution of *Linear Analysis and Optimization of Stream Programs*
//! (Lamb, 2003; PLDI 2003 with Thies & Amarasinghe).
//!
//! A filter is *linear* when every output is an affine combination of its
//! inputs; the paper represents such a filter as a **linear node**
//! `Λ = {A, b, peek, pop, push}` (Definition 1) and builds five techniques
//! on that representation, all implemented here:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 linear node representation | [`node`] |
//! | §3.2 linear extraction (Algorithms 1–2) | [`extract`] (the walk: `streamlin_graph::analyze`) |
//! | §3.3.1 linear expansion (Transformation 1) | [`expand`] |
//! | §3.3.2 pipeline combination (Transformation 2) | [`pipeline`] |
//! | §3.3.3 splitjoin combination (Transformations 3–4) | [`splitjoin`] |
//! | §4.1 frequency replacement (Transformations 5–6) | [`frequency`] |
//! | §4.2 redundancy elimination (Algorithm 3, Transformation 7) | [`redundancy`] |
//! | §4.3 optimization selection (Figures 4-3…4-6) | [`select`], [`cost`], [`shape`] |
//!
//! [`combine`] drives whole-graph replacement (maximal linear replacement,
//! per-filter "(nc)" replacement, maximal frequency replacement), producing
//! an optimized stream ([`opt::OptStream`]) that `streamlin-runtime`
//! executes; [`config::Config`] names the five configurations every front
//! end offers. [`reference`] holds a small channel-accurate simulator of
//! linear-node structures used as the correctness oracle in tests.
//!
//! # Examples
//!
//! Combining two FIR filters into one (the motivating example, Figure 1-4):
//!
//! ```
//! use streamlin_core::node::LinearNode;
//! use streamlin_core::pipeline::combine_pipeline;
//!
//! let f1 = LinearNode::fir(&[1.0, 2.0]);
//! let f2 = LinearNode::fir(&[3.0, 4.0]);
//! let combined = combine_pipeline(&f1, &f2).unwrap();
//! assert_eq!(combined.peek(), 3);
//! // (w1 * w2) convolution: [3, 10, 8]
//! assert_eq!(combined.coeff(0, 0), 3.0);
//! assert_eq!(combined.coeff(1, 0), 10.0);
//! assert_eq!(combined.coeff(2, 0), 8.0);
//! ```

pub mod combine;
pub mod config;
pub mod cost;
pub mod expand;
pub mod extract;
pub mod frequency;
pub mod node;
pub mod opt;
pub mod pipeline;
pub mod redundancy;
pub mod reference;
pub mod select;
pub mod shape;
pub mod splitjoin;
pub mod state_space;

pub use combine::{analyze_graph, LinearAnalysis};
pub use config::Config;
pub use node::LinearNode;
pub use opt::OptStream;
