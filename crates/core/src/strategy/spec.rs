//! Declarative strategy selection: a plain-data [`StrategySpec`] that the
//! CLI, the figures and the reproduction suite build per run, and an
//! [`AnyStrategy`] enum dispatching every strategy behind one type.
//!
//! The built strategy is always wrapped in [`StaleLoad`], which passes
//! the live loads through when the refresh period is 1, so staleness is
//! applied in one place for every strategy.

use crate::network::CacheNetwork;
use crate::request::Request;
use crate::strategy::{
    Assignment, LeastLoadedInBall, NearestReplica, ProximityChoice, StaleLoad, Strategy,
};
use paba_telemetry::{NullRecorder, Recorder};
use paba_topology::Topology;
use rand::Rng;

/// Which assignment rule a [`StrategySpec`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyRule {
    /// Strategy I ([`NearestReplica`]).
    Nearest,
    /// Strategy II ([`ProximityChoice`]) with `d` choices.
    Proximity {
        /// Proximity radius (`None` = `r = ∞`).
        radius: Option<u32>,
        /// Number of choices (2 in the paper).
        d: u32,
    },
    /// The full-information baseline ([`LeastLoadedInBall`]).
    LeastLoaded {
        /// Proximity radius (`None` = `r = ∞`).
        radius: Option<u32>,
    },
}

/// Plain-data description of a strategy, cheap to copy into every
/// Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategySpec {
    /// The assignment rule.
    pub rule: StrategyRule,
    /// Load-snapshot refresh period in requests (1 = fresh loads).
    pub stale_period: u64,
}

impl StrategySpec {
    /// Strategy I.
    pub const NEAREST: Self = Self::fresh(StrategyRule::Nearest);

    /// `rule` deciding on fresh loads.
    pub const fn fresh(rule: StrategyRule) -> Self {
        Self {
            rule,
            stale_period: 1,
        }
    }

    /// The paper's Strategy II: two choices within `radius`.
    pub const fn two_choice(radius: Option<u32>) -> Self {
        Self::fresh(StrategyRule::Proximity { radius, d: 2 })
    }

    /// Instantiate the strategy with `rec` as its instrumentation sink.
    ///
    /// # Panics
    /// If `stale_period == 0` or a proximity rule has `d == 0`.
    pub fn build<Rec: Recorder>(self, rec: Rec) -> StaleLoad<AnyStrategy<Rec>> {
        let inner = match self.rule {
            StrategyRule::Nearest => AnyStrategy::Nearest(NearestReplica::new().with_recorder(rec)),
            StrategyRule::Proximity { radius, d } => {
                AnyStrategy::Proximity(ProximityChoice::with_choices(radius, d).with_recorder(rec))
            }
            StrategyRule::LeastLoaded { radius } => {
                AnyStrategy::LeastLoaded(LeastLoadedInBall::new(radius).with_recorder(rec))
            }
        };
        StaleLoad::new(inner, self.stale_period)
    }
}

/// Every strategy a [`StrategySpec`] can name, behind one type.
#[derive(Clone, Debug)]
pub enum AnyStrategy<Rec: Recorder = NullRecorder> {
    /// Strategy I.
    Nearest(NearestReplica<Rec>),
    /// Strategy II.
    Proximity(ProximityChoice<Rec>),
    /// The full-information baseline.
    LeastLoaded(LeastLoadedInBall<Rec>),
}

impl<T: Topology, Rec: Recorder> Strategy<T> for AnyStrategy<Rec> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        match self {
            AnyStrategy::Nearest(s) => s.assign(net, loads, req, rng),
            AnyStrategy::Proximity(s) => s.assign(net, loads, req, rng),
            AnyStrategy::LeastLoaded(s) => s.assign(net, loads, req, rng),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyStrategy::Nearest(s) => Strategy::<T>::name(s),
            AnyStrategy::Proximity(s) => Strategy::<T>::name(s),
            AnyStrategy::LeastLoaded(s) => Strategy::<T>::name(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimReport;
    use crate::simulate::simulate;
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run<S: Strategy<Torus>>(mut s: S, seed: u64) -> SimReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(12)
            .library(40, Popularity::Uniform)
            .cache_size(3)
            .build(&mut rng);
        simulate(&net, &mut s, 400, &mut rng)
    }

    /// `s` bare when fresh, behind [`StaleLoad`] otherwise.
    fn run_concrete<S: Strategy<Torus>>(s: S, stale_period: u64, seed: u64) -> SimReport {
        match stale_period {
            1 => run(s, seed),
            p => run(StaleLoad::new(s, p), seed),
        }
    }

    #[test]
    fn built_strategy_matches_the_concrete_one() {
        let rules = [
            StrategyRule::Nearest,
            StrategyRule::Proximity {
                radius: Some(2),
                d: 3,
            },
            StrategyRule::LeastLoaded { radius: Some(2) },
        ];
        for rule in rules {
            for stale_period in [1, 16] {
                for seed in [5, 6] {
                    let spec = StrategySpec { rule, stale_period };
                    let want = match rule {
                        StrategyRule::Nearest => {
                            run_concrete(NearestReplica::new(), stale_period, seed)
                        }
                        StrategyRule::Proximity { radius, d } => run_concrete(
                            ProximityChoice::with_choices(radius, d),
                            stale_period,
                            seed,
                        ),
                        StrategyRule::LeastLoaded { radius } => {
                            run_concrete(LeastLoadedInBall::new(radius), stale_period, seed)
                        }
                    };
                    assert_eq!(
                        run(spec.build(NullRecorder), seed),
                        want,
                        "{spec:?} seed {seed}"
                    );
                }
            }
        }
    }
}
