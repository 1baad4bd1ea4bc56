//! # paba-repro — the statistical paper-reproduction suite.
//!
//! Every other crate in this workspace makes the simulator *faster* or
//! *broader*; this one proves it still *reproduces the paper*. It runs the
//! headline results of Pourmiri, Jafari Siavoshani & Shariatpanahi (IPDPS
//! 2017) as parameterized Monte-Carlo sweeps and turns each theorem's
//! qualitative claim into a **gate**: a standardized statistic with an
//! explicit threshold and an explicit bound on the probability that a
//! broken implementation slips past.
//!
//! Three experiments (see [`experiments`]):
//!
//! 1. **growth** — max load vs `n` for Strategy I, Strategy II at
//!    `r ∈ {⌈2√(ln n)⌉, const, ∞}`, and least-loaded-in-ball; gates the
//!    `Θ(log n / log log n)` vs `Θ(log log n)` separation and the
//!    strategy ordering `nearest ≫ two-choice ≳ least-loaded`.
//! 2. **tradeoff** — communication cost vs max load across the radius
//!    ladder; gates the monotone trade-off curve.
//! 3. **goodness** — Lemma 2's `(δ, µ)`-goodness preconditions on sparse
//!    proportional placements.
//!
//! The suite emits a versioned [`artifact::Artifact`]
//! (`BENCH_repro.json`, schema `paba-repro/1`), and `--check` diffs a
//! fresh run against a committed golden within statistical tolerance —
//! distinguishing RNG-reshuffle *noise* from behavioral *regression*
//! (see [`artifact::check`]). The churn-robustness
//! ([`churn_experiments`]) and temporal queueing
//! ([`queueing_experiments`]) suites produce the same kind of artifact;
//! [`Suite`] runs all three through one entry point, and CI runs each.

pub mod artifact;
pub mod churn_experiments;
pub mod experiments;
pub mod json;
pub mod queueing_experiments;

pub use artifact::{check, Artifact, CheckReport, Gate, Metric, DEFAULT_CHECK_Z, SCHEMA};

use paba_util::envcfg::Scale;
use paba_util::Table;

/// Configuration of one suite run.
#[derive(Clone, Copy, Debug)]
pub struct ReproConfig {
    /// Grid scale (quick = CI-sized, full = paper-sized).
    pub scale: Scale,
    /// Master seed; all experiments derive per-experiment seeds from it.
    pub seed: u64,
    /// Override every experiment's Monte-Carlo run count.
    pub runs_override: Option<usize>,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Emit sweep progress on stderr.
    pub verbose: bool,
}

impl ReproConfig {
    /// Config at `scale` with the workspace default seed.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            seed: paba_util::envcfg::DEFAULT_SEED,
            runs_override: None,
            threads: None,
            verbose: false,
        }
    }

    /// Resolve a run count: the override if set, else by scale.
    pub fn runs(&self, quick: usize, default: usize, full: usize) -> usize {
        self.runs_override
            .unwrap_or_else(|| self.pick(quick, default, full))
    }

    /// Pick the value (a grid, a horizon, …) for this config's scale.
    pub fn pick<T>(&self, quick: T, default: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// CLI-facing overrides of a suite's network regime, shared by the churn
/// and queueing suites. `None` keeps the scale default — the
/// configuration the committed golden was generated with.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetworkParams {
    /// Torus side (n = side²).
    pub side: Option<u32>,
    /// Library size K.
    pub files: Option<u32>,
    /// Cache slots per server M.
    pub cache: Option<u32>,
    /// Zipf exponent of the request popularity (0 = uniform).
    pub gamma: Option<f64>,
    /// Two-choice proximity radius.
    pub radius: Option<u32>,
}

/// One gated suite with its regime overrides. Every suite runs the same
/// way: [`Suite::run`] executes its experiments and assembles the
/// versioned artifact that `--check` diffs against the committed golden.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Suite {
    /// The theorem-gated reproduction suite: growth, tradeoff, goodness.
    Repro,
    /// The churn-robustness suite (see [`churn_experiments`]).
    Churn(churn_experiments::ChurnParams),
    /// The temporal queueing suite (see [`queueing_experiments`]).
    Queueing(queueing_experiments::QueueingParams),
}

impl Suite {
    /// Subcommand name; the artifact is `BENCH_<name>.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Repro => "repro",
            Suite::Churn(_) => "churn",
            Suite::Queueing(_) => "queueing",
        }
    }

    /// Schema id of the suite's artifact.
    pub fn schema(&self) -> &'static str {
        match self {
            Suite::Repro => paba_util::schema::REPRO,
            Suite::Churn(_) => paba_util::schema::CHURN,
            Suite::Queueing(_) => paba_util::schema::QUEUEING,
        }
    }

    /// Monte-Carlo run count a live progress tracker should expect, or
    /// `None` for the repro suite, whose sweeps track their own progress
    /// and take no live handle.
    pub fn planned_runs(&self, cfg: &ReproConfig) -> Option<usize> {
        match self {
            Suite::Repro => None,
            Suite::Churn(_) => Some(churn_experiments::planned_runs(cfg)),
            Suite::Queueing(_) => Some(queueing_experiments::planned_runs(cfg)),
        }
    }

    /// Reject overrides the engines cannot run at `scale`, before any
    /// work starts.
    pub fn validate(&self, scale: Scale) -> Result<(), String> {
        match self {
            Suite::Repro => Ok(()),
            Suite::Churn(p) => churn_experiments::validate(scale, p),
            Suite::Queueing(p) => queueing_experiments::validate(scale, p),
        }
    }

    /// Run the suite and assemble its artifact. `live` (the
    /// `--serve-metrics` path) observes the churn and queueing runs
    /// without perturbing them; the repro suite ignores it.
    pub fn run(&self, cfg: &ReproConfig, live: Option<&paba_mcrunner::LiveRun>) -> Artifact {
        let mut gates = Vec::new();
        let mut metrics = Vec::new();
        match self {
            Suite::Repro => {
                experiments::growth(cfg, &mut gates, &mut metrics);
                experiments::tradeoff(cfg, &mut gates, &mut metrics);
                experiments::goodness(cfg, &mut gates, &mut metrics);
            }
            Suite::Churn(p) => {
                churn_experiments::churn_with(cfg, p, live, &mut gates, &mut metrics)
            }
            Suite::Queueing(p) => {
                queueing_experiments::queueing_with(cfg, p, live, &mut gates, &mut metrics)
            }
        }
        Artifact {
            schema: self.schema().into(),
            seed: cfg.seed,
            scale: artifact::scale_label(cfg.scale).into(),
            gates,
            metrics,
        }
    }
}

/// Render the gate results as the standard bench table.
pub fn gates_table(a: &Artifact) -> Table {
    let mut t = Table::new(["gate", "passed", "statistic", "threshold", "p(false pass)"]);
    for g in &a.gates {
        t.push_row([
            g.id.clone(),
            if g.passed { "yes" } else { "NO" }.to_string(),
            format!("{:.3}", g.statistic),
            format!("{:.3}", g.threshold),
            if g.p_false_pass.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2e}", g.p_false_pass)
            },
        ]);
    }
    t
}

/// Render the golden-diff outcome as a table (worst displacements first).
pub fn check_table(rep: &CheckReport) -> Table {
    let mut t = Table::new(["check", "value"]);
    t.push_row(["metrics compared".to_string(), format!("{}", rep.compared)]);
    t.push_row([
        "noise/regression z".to_string(),
        format!("{:.1}", rep.z_threshold),
    ]);
    t.push_row([
        "worst displacement".to_string(),
        if rep.worst_z.is_nan() {
            "-".to_string()
        } else {
            format!("z={:.2} ({})", rep.worst_z, rep.worst_id)
        },
    ]);
    t.push_row([
        "regressions".to_string(),
        format!("{}", rep.regressions.len()),
    ]);
    for d in rep.regressions.iter().take(10) {
        t.push_row([
            format!("  {}", d.id),
            format!(
                "golden {:.4} → fresh {:.4} (z={:.1})",
                d.golden_mean, d.fresh_mean, d.z
            ),
        ]);
    }
    t.push_row([
        "fresh gate failures".to_string(),
        if rep.gate_failures.is_empty() {
            "none".to_string()
        } else {
            rep.gate_failures.join(", ")
        },
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_resolution() {
        let mut cfg = ReproConfig::new(Scale::Full);
        assert_eq!(cfg.runs(1, 10, 100), 100);
        cfg.runs_override = Some(7);
        assert_eq!(cfg.runs(1, 10, 100), 7);
    }

    #[test]
    fn pick_by_scale() {
        let cfg = ReproConfig::new(Scale::Quick);
        assert_eq!(cfg.pick(vec![1], vec![2], vec![3]), vec![1]);
        assert_eq!(ReproConfig::new(Scale::Default).pick(1, 2, 3), 2);
    }
    use churn_experiments::ChurnParams;
    use queueing_experiments::QueueingParams;

    fn churn(cfg: &ReproConfig) -> Artifact {
        Suite::Churn(ChurnParams::default()).run(cfg, None)
    }

    fn queueing(cfg: &ReproConfig) -> Artifact {
        Suite::Queueing(QueueingParams::default()).run(cfg, None)
    }

    /// The quick suite itself, end to end: every gate must pass, the
    /// artifact must round-trip, and a self-check against its own output
    /// must be clean. This is the crate's own tier-1 anchor; CI's
    /// `suite-smoke` job additionally diffs against the committed golden.
    #[test]
    fn quick_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        // Trim runs for test wall-clock; gates are designed to clear
        // their thresholds with margin even at reduced replication.
        cfg.runs_override = Some(12);
        let a = Suite::Repro.run(&cfg, None);
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} < threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        assert!(!a.metrics.is_empty());
        // Metric ids are unique.
        let mut ids: Vec<&str> = a.metrics.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.metrics.len(), "duplicate metric ids");

        // Round trip compared via JSON: `Artifact` equality is NaN-hostile
        // (structural gates carry a NaN false-pass bound, and NaN ≠ NaN).
        let round = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(round.to_json(), a.to_json());

        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.worst_z, 0.0);

        // Tables render without panicking and carry every gate.
        assert_eq!(gates_table(&a).to_csv().lines().count(), a.gates.len() + 1);
        let _ = check_table(&rep).to_markdown();
    }

    #[test]
    fn suite_is_deterministic_in_seed_and_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(3);
        cfg.threads = Some(1);
        let a = Suite::Repro.run(&cfg, None);
        cfg.threads = Some(8);
        let b = Suite::Repro.run(&cfg, None);
        // JSON form: bitwise-identical output, NaN fields included.
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn quick_churn_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(8);
        let a = churn(&cfg);
        assert_eq!(a.schema, paba_util::schema::CHURN);
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} < threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        let round = Artifact::from_json_expecting(&a.to_json(), paba_util::schema::CHURN).unwrap();
        assert_eq!(round.to_json(), a.to_json());
        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
    }

    #[test]
    fn churn_suite_live_recorder_is_transparent() {
        // Live per-worker recorders must not perturb the artifact (they
        // never touch the RNG stream), and the churn counters must flow
        // into the registry's merged snapshot.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(3);
        let plain = churn(&cfg);
        let live = paba_mcrunner::LiveRun::new(3, false);
        let observed = Suite::Churn(ChurnParams::default()).run(&cfg, Some(&live));
        assert_eq!(plain.metrics, observed.metrics);
        assert_eq!(plain.gates.len(), observed.gates.len());
        for (a, b) in plain.gates.iter().zip(&observed.gates) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.passed, b.passed);
            assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        }
        let snap = live.snapshot();
        assert!(snap.counter(paba_telemetry::Counter::ChurnEvent) > 0);
        assert!(snap.counter(paba_telemetry::Counter::DeadReplicaRetry) > 0);
    }

    #[test]
    fn churn_params_override_changes_the_regime() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let kill_heavy = ChurnParams {
            graceful_fraction: Some(0.0),
            cycle_fraction: Some(0.3),
            ..Default::default()
        };
        let a = Suite::Churn(kill_heavy).run(&cfg, None);
        let b = churn(&cfg);
        // More crashes, same metric ids — the artifacts stay comparable
        // but the measured behavior differs.
        assert_eq!(
            a.metrics.iter().map(|m| &m.id).collect::<Vec<_>>(),
            b.metrics.iter().map(|m| &m.id).collect::<Vec<_>>()
        );
        assert_ne!(a.metrics, b.metrics);
        let cycled = |art: &Artifact| {
            art.metrics
                .iter()
                .find(|m| m.id == "churn/schedule/cycled_fraction")
                .expect("metric present")
                .mean
        };
        assert!(cycled(&a) > cycled(&b));
    }

    #[test]
    fn churn_suite_is_deterministic_in_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(4);
        cfg.threads = Some(1);
        let a = churn(&cfg);
        cfg.threads = Some(8);
        let b = churn(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn quick_queueing_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(8);
        let a = queueing(&cfg);
        assert_eq!(a.schema, paba_util::schema::QUEUEING);
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} vs threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        let round =
            Artifact::from_json_expecting(&a.to_json(), paba_util::schema::QUEUEING).unwrap();
        assert_eq!(round.to_json(), a.to_json());
        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
    }

    #[test]
    fn queueing_suite_live_recorder_is_transparent() {
        // The live handle is a pure observer of run progress — the
        // queueing engine records no counters and never touches the RNG
        // stream through it, so the artifact must be bit-identical.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let plain = queueing(&cfg);
        let live = paba_mcrunner::LiveRun::new(2, false);
        let observed = Suite::Queueing(QueueingParams::default()).run(&cfg, Some(&live));
        assert_eq!(plain.to_json(), observed.to_json());
    }

    #[test]
    fn queueing_params_override_changes_the_regime() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let hotter = QueueingParams {
            lambda: Some(0.95),
            ..Default::default()
        };
        let a = Suite::Queueing(hotter).run(&cfg, None);
        let b = queueing(&cfg);
        // Same metric ids — the artifacts stay comparable — but the
        // hotter system queues measurably deeper.
        assert_eq!(
            a.metrics.iter().map(|m| &m.id).collect::<Vec<_>>(),
            b.metrics.iter().map(|m| &m.id).collect::<Vec<_>>()
        );
        assert_ne!(a.metrics, b.metrics);
        let p99 = |art: &Artifact| {
            art.metrics
                .iter()
                .find(|m| m.id == "queueing/two_choice/p99")
                .expect("metric present")
                .mean
        };
        assert!(p99(&a) > p99(&b));
    }

    #[test]
    fn queueing_suite_is_deterministic_in_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(4);
        cfg.threads = Some(1);
        let a = queueing(&cfg);
        cfg.threads = Some(8);
        let b = queueing(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_move_metrics_within_noise() {
        // The whole premise of --check: an RNG reshuffle (here: a
        // different master seed) must pass the statistical diff.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(12);
        let a = Suite::Repro.run(&cfg, None);
        cfg.seed = cfg.seed.wrapping_add(1);
        let b = Suite::Repro.run(&cfg, None);
        let rep = check(&b, &a, DEFAULT_CHECK_Z).unwrap();
        assert!(
            rep.ok(),
            "seed change must read as noise: {:?}",
            rep.regressions
        );
    }
}
