//! Experiment harness: one module per table/figure of the LoPC thesis.
//!
//! Every experiment produces an [`ExpResult`] holding the regenerated data
//! series, model-vs-simulator comparison tables, and headline notes (the
//! "paper says X, we measure Y" lines recorded in EXPERIMENTS.md). The
//! `figures` binary renders all of them. The criterion benches time the
//! simulator, the solvers and the serving layer, and `ablations` prints
//! the model-side accuracy studies of DESIGN.md §7; the correctness checks
//! behind their timings are tests.
//!
//! Parameter choices that the scanned thesis leaves ambiguous (exact axis
//! values for W and St) are centralised in [`params`] and documented in
//! DESIGN.md §3 (substitutions).

pub mod baseline;
pub mod experiments;
pub mod params;

use lopc_report::{ComparisonTable, Figure};

/// The output of one reproduction experiment.
#[derive(Clone, Debug, Default)]
pub struct ExpResult {
    /// Experiment id (`fig5_1`, `tab5_err`, …).
    pub name: String,
    /// Regenerated figures.
    pub figures: Vec<Figure>,
    /// Model-vs-measurement comparisons.
    pub tables: Vec<ComparisonTable>,
    /// Headline observations ("paper: ≤6 % — measured: 4.1 %").
    pub notes: Vec<String>,
}

impl ExpResult {
    /// New empty result.
    pub fn new(name: impl Into<String>) -> Self {
        ExpResult {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig5_1",
    "fig5_2",
    "fig5_3",
    "tab5_err",
    "fig6_2",
    "matvec",
    "rule_of_thumb",
    "shared_mem",
    "general",
    "pipelining",
];

/// Run one experiment by id. `quick` shrinks simulation windows for smoke
/// tests; the real harness uses `quick = false`.
pub fn run_experiment(name: &str, quick: bool) -> Option<ExpResult> {
    match name {
        "fig5_1" => Some(experiments::fig5_1::run(quick)),
        "fig5_2" => Some(experiments::fig5_2::run(quick)),
        "fig5_3" => Some(experiments::fig5_3::run(quick)),
        "tab5_err" => Some(experiments::tab5_err::run(quick)),
        "fig6_2" => Some(experiments::fig6_2::run(quick)),
        "matvec" => Some(experiments::matvec::run(quick)),
        "rule_of_thumb" => Some(experiments::rule_of_thumb::run(quick)),
        "shared_mem" => Some(experiments::shared_mem::run(quick)),
        "general" => Some(experiments::general::run(quick)),
        "pipelining" => Some(experiments::pipelining::run(quick)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", true).is_none());
    }

    #[test]
    fn all_experiments_listed_are_runnable() {
        // Smoke-run the cheapest one to avoid heavy work in unit tests; the
        // full set is exercised by the figures binary and integration tests.
        assert!(ALL_EXPERIMENTS.contains(&"fig5_1"));
        let r = run_experiment("fig5_1", true).unwrap();
        assert_eq!(r.name, "fig5_1");
        assert!(!r.figures.is_empty());
    }
}
