//! The paper's figure and theorem tables, one function per table set.
//!
//! Each figure sweeps its parameter grid at the config's scale, averages
//! `cfg.runs(…)` Monte-Carlo runs per point, and writes its header, its
//! named tables and its "Paper check" notes to a [`Sink`]. `paba figure
//! NAME|all` prints the sink as Markdown, or as CSV under `--csv`.

// The figure modules share these through `use super::*`.
use crate::{pm, sweep_points, sweep_workload_points, NetPoint};
use paba_core::StrategySpec;
use paba_mcrunner::SweepOutcome;
use paba_repro::ReproConfig;
use paba_util::Table;
use rand::rngs::SmallRng;

mod ablation_design;
mod examples_regimes;
mod fig1_maxload_nearest;
mod fig2_cost_nearest;
mod fig3_maxload_twochoice;
mod fig4_cost_twochoice;
mod fig5_tradeoff;
mod lemma1_voronoi;
mod lemma2_goodness;
mod lemma3_config_graph;
mod supermarket_queueing;
mod table_thm3_zipf_cost;
mod thm12_nearest_scaling;
mod thm46_twochoice_scaling;
mod workloads;

/// A figure: runs its sweeps under `cfg` and writes its output to the sink.
pub type Figure = fn(&ReproConfig, &mut Sink);

/// Every figure, by name, in the order `paba figure all` runs them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig1_maxload_nearest", fig1_maxload_nearest::run),
    ("fig2_cost_nearest", fig2_cost_nearest::run),
    ("fig3_maxload_twochoice", fig3_maxload_twochoice::run),
    ("fig4_cost_twochoice", fig4_cost_twochoice::run),
    ("fig5_tradeoff", fig5_tradeoff::run),
    ("thm12_nearest_scaling", thm12_nearest_scaling::run),
    ("table_thm3_zipf_cost", table_thm3_zipf_cost::run),
    ("thm46_twochoice_scaling", thm46_twochoice_scaling::run),
    ("lemma1_voronoi", lemma1_voronoi::run),
    ("lemma2_goodness", lemma2_goodness::run),
    ("lemma3_config_graph", lemma3_config_graph::run),
    ("examples_regimes", examples_regimes::run),
    ("ablation_design", ablation_design::run),
    ("supermarket_queueing", supermarket_queueing::run),
    ("workloads", workloads::run),
];

/// The figures `name` selects: one by name, or every figure for `all`.
/// The error lists the valid names.
pub fn select(name: &str) -> Result<Vec<Figure>, String> {
    let picked: Vec<Figure> = FIGURES
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .map(|&(_, f)| f)
        .collect();
    if picked.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        let names = names.join(" | ");
        return Err(format!("unknown figure '{name}' (expected all | {names})"));
    }
    Ok(picked)
}

/// One piece of a figure's output.
#[derive(Clone, Debug)]
enum Block {
    /// Header, sub-heading or note, printed verbatim.
    Text(String),
    /// A named table.
    Table(String, Table),
}

/// What a figure writes: text and named tables, in order.
#[derive(Clone, Debug, Default)]
pub struct Sink {
    blocks: Vec<Block>,
}

impl Sink {
    /// The standard figure header: title, paper reference, seed, runs
    /// per point and scale.
    pub fn header(&mut self, title: &str, paper_ref: &str, cfg: &ReproConfig, runs: usize) {
        self.blocks.push(Block::Text(format!(
            "\n## {title}\n\nReproduces {paper_ref} -- seed {}, {runs} runs/point, scale {:?}.\n\n",
            cfg.seed, cfg.scale
        )));
    }

    /// A named table.
    pub fn table(&mut self, name: impl Into<String>, table: Table) {
        self.blocks.push(Block::Table(name.into(), table));
    }

    /// A line of text (a note or sub-heading).
    pub fn note(&mut self, text: impl Into<String>) {
        let mut text = text.into();
        text.push('\n');
        self.blocks.push(Block::Text(text));
    }

    /// The named tables, in output order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table(name, t) => Some((name.as_str(), t)),
            Block::Text(_) => None,
        })
    }

    /// Everything as Markdown: text verbatim, each table followed by a
    /// blank line.
    pub fn to_markdown(&self) -> String {
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Text(text) => text.clone(),
                Block::Table(_, t) => format!("{}\n", t.to_markdown()),
            })
            .collect()
    }

    /// The tables as CSV, each preceded by a `# NAME` line and followed
    /// by a blank line; the text is left out.
    pub fn to_csv(&self) -> String {
        self.tables()
            .map(|(name, t)| format!("# {name}\n{}\n", t.to_csv()))
            .collect()
    }
}

/// [`paba_mcrunner::sweep`] under the config's thread count and progress
/// flag.
pub(crate) fn sweep<P, O, F>(
    cfg: &ReproConfig,
    points: &[P],
    runs: usize,
    seed: u64,
    run_fn: F,
) -> Vec<SweepOutcome<P, O>>
where
    P: Clone + Sync,
    O: Send,
    F: Fn(&P, usize, &mut SmallRng) -> O + Sync,
{
    paba_mcrunner::sweep(points, runs, seed, cfg.threads, cfg.verbose, run_fn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_util::envcfg::Scale;

    fn quick(runs: usize, threads: Option<usize>) -> ReproConfig {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(runs);
        cfg.threads = threads;
        cfg
    }

    #[test]
    fn every_figure_runs_at_quick_scale() {
        let cfg = quick(1, None);
        for (name, run) in FIGURES {
            let mut sink = Sink::default();
            run(&cfg, &mut sink);
            assert!(sink.tables().count() > 0, "{name}: no table");
            let csv = sink.to_csv();
            for (table, t) in sink.tables() {
                assert!(!t.is_empty(), "{name}: table {table} is empty");
                assert!(csv.contains(&format!("# {table}\n{}", t.to_csv())));
            }
            assert!(sink.to_markdown().starts_with("\n## "), "{name}");
        }
    }

    #[test]
    fn fig1_is_identical_across_thread_counts() {
        let text = |threads| {
            let mut sink = Sink::default();
            fig1_maxload_nearest::run(&quick(3, Some(threads)), &mut sink);
            sink.to_markdown()
        };
        assert_eq!(text(1), text(2));
    }
}
