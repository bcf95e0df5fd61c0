//! The named optimization configurations of §5.2.
//!
//! Every front end — `streamlinc --config`, the daemon's `"config"`
//! member, the equivalence suites and the figure harness — names a
//! configuration by one of these five labels; [`Config::apply`] is the
//! only place a label turns into [`replace`] options or a [`select`] call.

use streamlin_graph::ir::Stream;

use crate::combine::{replace, LinearAnalysis, ReplaceOptions, ReplaceTarget};
use crate::cost::CostModel;
use crate::opt::OptStream;
use crate::select::{select, SelectError, SelectOptions};

/// One of the measured configurations of §5.2 (plus §5.6's `redund`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Config {
    /// Per-filter direct execution: the paper's unoptimized baseline.
    Baseline,
    /// Maximal linear replacement.
    Linear,
    /// Maximal frequency replacement.
    Freq,
    /// Maximal linear replacement with redundancy elimination (§5.6).
    Redund,
    /// Automatic optimization selection (§4.3). The default.
    #[default]
    AutoSel,
}

impl Config {
    /// Every configuration, in the order the paper's tables list them.
    pub const ALL: [Config; 5] = [
        Config::Baseline,
        Config::Linear,
        Config::Freq,
        Config::Redund,
        Config::AutoSel,
    ];

    /// The name used on the command line, on the wire and in tables.
    pub fn label(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Linear => "linear",
            Config::Freq => "freq",
            Config::Redund => "redund",
            Config::AutoSel => "autosel",
        }
    }

    /// Builds the optimized stream this configuration describes.
    ///
    /// # Errors
    ///
    /// Only [`Config::AutoSel`] can fail: selection needs a steady-state
    /// schedule.
    pub fn apply(
        self,
        graph: &Stream,
        analysis: &LinearAnalysis,
    ) -> Result<OptStream, SelectError> {
        let options = match self {
            Config::Baseline => ReplaceOptions::per_filter(),
            Config::Linear => ReplaceOptions::maximal_linear(),
            Config::Freq => ReplaceOptions::maximal_freq(),
            Config::Redund => ReplaceOptions {
                combine: true,
                target: ReplaceTarget::Redund,
            },
            Config::AutoSel => {
                let model = CostModel::default();
                return Ok(select(graph, analysis, &model, &SelectOptions::default())?.opt);
            }
        };
        Ok(replace(graph, analysis, &options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_autosel_is_the_default() {
        let labels: std::collections::HashSet<_> = Config::ALL.map(Config::label).into();
        assert_eq!(labels.len(), Config::ALL.len());
        assert_eq!(Config::default(), Config::AutoSel);
    }
}
