//! Statistical cross-strategy orderings — the paper's qualitative claims
//! as executable assertions (averaged over enough seeds that a correct
//! implementation fails with negligible probability).

use paba::core::StrategySpec;
use paba::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Avg {
    load: f64,
    cost: f64,
}

/// Mean max load and cost of `strategy` over `runs` fresh networks, seeded
/// `seed0..seed0 + runs`.
fn average(runs: u64, seed0: u64, side: u32, k: u32, m: u32, strategy: StrategySpec) -> Avg {
    let mut load = 0.0;
    let mut cost = 0.0;
    for s in seed0..seed0 + runs {
        let mut rng = SmallRng::seed_from_u64(paba::util::mix_seed(s, side as u64));
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let mut strategy = strategy.build(paba::telemetry::NullRecorder);
        let rep = simulate(&net, &mut strategy, net.n() as u64, &mut rng);
        load += rep.max_load() as f64 / runs as f64;
        cost += rep.comm_cost() / runs as f64;
    }
    Avg { load, cost }
}

#[test]
fn two_choice_balances_better_given_replication() {
    // Well-replicated regime (nM/K = 40): the paper's headline ordering.
    let runs = 24;
    let near = average(runs, 0, 20, 50, 5, StrategySpec::NEAREST);
    let two = average(runs, 1_000, 20, 50, 5, StrategySpec::two_choice(None));
    assert!(
        two.load < near.load - 0.5,
        "two-choice {:.2} should beat nearest {:.2}",
        two.load,
        near.load
    );
}

#[test]
fn nearest_has_minimal_cost() {
    // No strategy can undercut nearest-replica communication cost.
    let runs = 16;
    let near = average(runs, 0, 20, 100, 4, StrategySpec::NEAREST);
    let two_r = average(runs, 500, 20, 100, 4, StrategySpec::two_choice(Some(4)));
    let two_inf = average(runs, 900, 20, 100, 4, StrategySpec::two_choice(None));
    assert!(
        near.cost <= two_r.cost + 0.05,
        "{} vs {}",
        near.cost,
        two_r.cost
    );
    assert!(
        two_r.cost < two_inf.cost,
        "{} vs {}",
        two_r.cost,
        two_inf.cost
    );
}

#[test]
fn radius_interpolates_cost_monotonically() {
    // Larger radius → more freedom → higher cost (statistically), while
    // max load weakly improves.
    let runs = 20;
    let r2 = average(runs, 0, 18, 40, 8, StrategySpec::two_choice(Some(2)));
    let r5 = average(runs, 0, 18, 40, 8, StrategySpec::two_choice(Some(5)));
    let rinf = average(runs, 0, 18, 40, 8, StrategySpec::two_choice(None));
    assert!(r2.cost < r5.cost && r5.cost < rinf.cost);
    assert!(rinf.load <= r2.load + 0.3);
}

#[test]
fn memory_starved_regime_annihilates_two_choice_gain() {
    // Example 2: K = n, M = 1 — the two "choices" are nearly always the
    // same single replica, so Strategy II degenerates toward Strategy I.
    let side = 20u32;
    let n = side * side;
    let runs = 24;
    let near = average(runs, 0, side, n, 1, StrategySpec::NEAREST);
    let two = average(runs, 3_000, side, n, 1, StrategySpec::two_choice(None));
    assert!(
        (two.load - near.load).abs() < 1.0,
        "memory-starved two-choice {:.2} should track nearest {:.2}",
        two.load,
        near.load
    );
}

#[test]
fn strategy_ii_cost_tracks_radius() {
    // Theorem 4's C = Θ(r): doubling r roughly doubles the cost while the
    // ball still has plenty of replicas.
    let side = 30u32;
    let runs = 16;
    let r4 = average(runs, 0, side, 20, 10, StrategySpec::two_choice(Some(4)));
    let r8 = average(runs, 0, side, 20, 10, StrategySpec::two_choice(Some(8)));
    let ratio = r8.cost / r4.cost;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "cost ratio {ratio:.2} should be ≈ 2"
    );
}

#[test]
fn full_replication_minimizes_load_among_cache_sizes() {
    // More memory (at fixed K) can only help Strategy II.
    let runs = 20;
    let m1 = average(runs, 0, 16, 64, 1, StrategySpec::two_choice(None));
    let m16 = average(runs, 7_000, 16, 64, 16, StrategySpec::two_choice(None));
    assert!(
        m16.load <= m1.load,
        "M=16 load {:.2} should be ≤ M=1 load {:.2}",
        m16.load,
        m1.load
    );
}
