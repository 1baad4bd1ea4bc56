//! Figure/table regeneration and the artifact report.
//!
//! [`figures`] reproduces each figure or table of Pourmiri et al. (IPDPS
//! 2017): it sweeps the paper's parameter grid, averages a configurable
//! number of Monte-Carlo runs per point (placement *and* requests
//! re-randomized each run, matching the paper's §V setup), and writes the
//! same series the paper plots, for `paba figure` to print. [`report`]
//! folds the gated suites' `BENCH_*.json` artifacts into one report.

pub mod figures;
pub mod report;

use paba_core::{simulate_source, CacheNetwork, PlacementPolicy, StrategySpec, UncachedPolicy};
use paba_popularity::Popularity;
use paba_repro::ReproConfig;
use paba_telemetry::NullRecorder;
use paba_util::Summary;
use paba_workload::WorkloadSpec;
use rand::rngs::SmallRng;

/// One network configuration point of a sweep.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Torus side (`n = side²`).
    pub side: u32,
    /// Library size `K`.
    pub k: u32,
    /// Cache size `M`.
    pub m: u32,
    /// Popularity profile.
    pub popularity: Popularity,
    /// Placement policy.
    pub policy: PlacementPolicy,
}

impl NetPoint {
    /// Uniform-popularity point with the paper's default placement.
    pub fn uniform(side: u32, k: u32, m: u32) -> Self {
        Self {
            side,
            k,
            m,
            popularity: Popularity::Uniform,
            policy: PlacementPolicy::ProportionalWithReplacement,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.side * self.side
    }

    /// Instantiate the network with a fresh random placement.
    pub fn build(&self, rng: &mut SmallRng) -> CacheNetwork<paba_topology::Torus> {
        CacheNetwork::builder()
            .torus_side(self.side)
            .library(self.k, self.popularity.clone())
            .cache_size(self.m)
            .placement_policy(self.policy)
            .build(rng)
    }
}

/// Per-run scalar outcomes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOut {
    /// Maximum load `L`.
    pub max_load: f64,
    /// Communication cost `C`.
    pub cost: f64,
    /// Fraction of requests on any fallback path.
    pub fallback: f64,
}

/// One full simulation run: fresh placement, then `n` requests (the
/// paper's default request count) drawn from a fresh instantiation of
/// `workload` and assigned by `strategy`.
pub fn run_once(
    point: &NetPoint,
    strategy: StrategySpec,
    workload: &WorkloadSpec,
    rng: &mut SmallRng,
) -> RunOut {
    let net = point.build(rng);
    let requests = net.n() as u64;
    let mut source = workload
        .build(&net, UncachedPolicy::ResampleFile)
        .expect("workload spec must fit the bench network");
    let mut s = strategy.build(NullRecorder);
    let report = simulate_source(&net, &mut s, &mut source, requests, rng);
    RunOut {
        max_load: report.max_load() as f64,
        cost: report.comm_cost(),
        fallback: report.fallback_fraction(),
    }
}

/// Averaged outcome of one sweep point.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Maximum-load statistics across runs.
    pub max_load: Summary,
    /// Communication-cost statistics across runs.
    pub cost: Summary,
    /// Fallback-fraction statistics across runs.
    pub fallback: Summary,
}

/// Sweep `(NetPoint, StrategySpec, WorkloadSpec)` triples in parallel on
/// `cfg.threads` workers, deterministic in `(seed, point, run)`.
pub fn sweep_workload_points(
    cfg: &ReproConfig,
    points: &[(NetPoint, StrategySpec, WorkloadSpec)],
    runs: usize,
    seed: u64,
) -> Vec<PointSummary> {
    let outcomes = figures::sweep(cfg, points, runs, seed, |p, _run, rng| {
        run_once(&p.0, p.1, &p.2, rng)
    });
    outcomes
        .iter()
        .map(|o| PointSummary {
            max_load: o.summarize(|r| r.max_load),
            cost: o.summarize(|r| r.cost),
            fallback: o.summarize(|r| r.fallback),
        })
        .collect()
}

/// [`sweep_workload_points`] under the paper's IID workload.
pub fn sweep_points(
    cfg: &ReproConfig,
    points: &[(NetPoint, StrategySpec)],
    runs: usize,
    seed: u64,
) -> Vec<PointSummary> {
    let points: Vec<_> = points
        .iter()
        .map(|(p, strategy)| (p.clone(), *strategy, WorkloadSpec::Iid))
        .collect();
    sweep_workload_points(cfg, &points, runs, seed)
}

/// Format a mean ± 95% CI pair compactly.
pub fn pm(s: &Summary) -> String {
    format!("{:.3} ± {:.3}", s.mean, 1.96 * s.std_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn run_once_produces_sane_metrics() {
        let p = NetPoint::uniform(8, 16, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let iid = WorkloadSpec::Iid;
        let out = run_once(&p, StrategySpec::NEAREST, &iid, &mut rng);
        assert!(out.max_load >= 1.0);
        assert!(out.cost >= 0.0);
        let out2 = run_once(&p, StrategySpec::two_choice(Some(2)), &iid, &mut rng);
        assert!(out2.max_load >= 1.0);
    }

    #[test]
    fn sweep_points_shapes() {
        let pts = vec![
            (NetPoint::uniform(5, 10, 1), StrategySpec::NEAREST),
            (NetPoint::uniform(5, 10, 2), StrategySpec::two_choice(None)),
        ];
        let cfg = ReproConfig::new(paba_util::envcfg::Scale::Quick);
        let res = sweep_points(&cfg, &pts, 5, 3);
        assert_eq!(res.len(), 2);
        for s in &res {
            assert_eq!(s.max_load.count, 5);
        }
    }
}
