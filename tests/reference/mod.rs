//! The reference engine: the data-driven `runtime::Engine`, which fires
//! any node whose inputs hold a firing's worth. No program runs on it in
//! production; every suite that holds an executor to it builds it here.
//! A deterministic stream program prints the same values under every valid
//! schedule, so the static plan and the pipeline must print what this
//! engine prints.

// Each test file that includes this module uses a part of it.
#![allow(dead_code)]

use streamlin::core::OptStream;
use streamlin::runtime::flat::{flatten_with, FlatGraph};
use streamlin::runtime::{Engine, MatMulStrategy, Tier};
use streamlin::support::{OpCounter, Recorder, Tally};

/// What a reference run printed and counted.
pub struct Reference {
    /// The first `n` values printed.
    pub outputs: Vec<f64>,
    pub ops: OpCounter,
    pub firings: u64,
}

/// Runs `flat` on the reference engine until it has printed `n` values,
/// recorded on `rec` when there is one.
///
/// # Errors
///
/// The run's failure, rendered.
pub fn run_flat<T: Tally + Default>(
    flat: FlatGraph,
    n: usize,
    rec: Option<&mut Recorder>,
) -> Result<Reference, String> {
    let mut engine = Engine::<T>::new(flat);
    match rec {
        Some(rec) => engine.run_probed(n, rec),
        None => engine.run_until_outputs(n),
    }
    .map_err(|e| e.to_string())?;
    Ok(Reference {
        outputs: engine.printed()[..n].to_vec(),
        ops: engine.ops().counts(),
        firings: engine.firings(),
    })
}

/// `opt` flattened with the unrolled kernel on `tier`, tape checks elided
/// where certified when `cert`, run counted on the reference engine.
///
/// # Errors
///
/// Flattening or the run failed.
pub fn run(opt: &OptStream, n: usize, tier: Tier, cert: bool) -> Result<Reference, String> {
    let flat = flatten_with(opt, MatMulStrategy::Unrolled, tier, cert).map_err(|e| e.message)?;
    run_flat::<OpCounter>(flat, n, None)
}
