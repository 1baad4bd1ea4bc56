//! Theory ↔ simulation consistency: the paper's closed forms must predict
//! what the simulator measures (up to documented Θ-constants).

use paba::prelude::*;
use paba::theory;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mean_cost_nearest(side: u32, k: u32, m: u32, pop: &Popularity, runs: u64) -> f64 {
    let mut total = 0.0;
    for s in 0..runs {
        let mut rng = SmallRng::seed_from_u64(paba::util::mix_seed(s, k as u64 + m as u64));
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, pop.clone())
            .cache_size(m)
            .build(&mut rng);
        let mut strat = NearestReplica::new();
        total += simulate(&net, &mut strat, net.n() as u64, &mut rng).comm_cost();
    }
    total / runs as f64
}

#[test]
fn uniform_cost_scales_like_sqrt_k_over_m() {
    // Theorem 3: C = Θ(√(K/M)). The ratio between (K,M) pairs with a 4×
    // different K/M must be ≈ 2.
    let runs = 10;
    let c_base = mean_cost_nearest(45, 200, 8, &Popularity::Uniform, runs);
    let c_4x = mean_cost_nearest(45, 800, 8, &Popularity::Uniform, runs);
    let ratio = c_4x / c_base;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "√(K/M) scaling broken: {ratio:.2}"
    );
}

#[test]
fn measured_cost_proportional_to_exact_series() {
    // Eq. (14) with a single geometry constant should explain all (K, M):
    // fit the constant on one configuration, predict the others within 25%.
    let configs = [(100u32, 2u32), (400, 4), (900, 3), (1600, 8)];
    let mut ratios = Vec::new();
    for &(k, m) in &configs {
        let measured = mean_cost_nearest(45, k, m, &Popularity::Uniform, 8);
        let weights = vec![1.0 / k as f64; k as usize];
        let series = theory::nearest_cost_series(&weights, m);
        ratios.push(measured / series);
    }
    let first = ratios[0];
    for (i, r) in ratios.iter().enumerate() {
        assert!(
            (r / first - 1.0).abs() < 0.25,
            "geometry constant drifts: {ratios:?} at config {i}"
        );
    }
}

#[test]
fn zipf_saturated_regime_cost_independent_of_k() {
    // γ = 2.5 (Saturated): quadrupling K must not move the cost much.
    let pop = Popularity::zipf(2.5);
    let runs = 10;
    let c1 = mean_cost_nearest(45, 400, 4, &pop, runs);
    let c2 = mean_cost_nearest(45, 1600, 4, &pop, runs);
    assert!(
        (c1 / c2 - 1.0).abs() < 0.25,
        "saturated-regime cost moved: {c1:.3} vs {c2:.3}"
    );
}

#[test]
fn goodness_parameters_hold_in_lemma2_regime() {
    use paba::core::GoodnessReport;
    let side = 32u32;
    let n = side * side;
    let alpha = 0.25f64;
    let m = (n as f64).powf(alpha).round() as u32;
    for seed in 0..5 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(n, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let rep = GoodnessReport::measure(&net, Some(5));
        assert!(
            rep.is_good(theory::goodness_delta(alpha), theory::goodness_mu(alpha)),
            "seed {seed}: min t(u)={}, max t(u,v)={}",
            rep.min_t_u,
            rep.max_t_uv
        );
    }
}

#[test]
fn config_graph_degree_matches_lemma3_prediction() {
    use paba::core::{build_config_graph, ConfigGraphMethod};
    let side = 32u32;
    let n = side * side;
    let (m, r) = (23u32, 6u32);
    let mut rng = SmallRng::seed_from_u64(11);
    let net = CacheNetwork::builder()
        .torus_side(side)
        .library(n, Popularity::Uniform)
        .cache_size(m)
        .build(&mut rng);
    let h = build_config_graph(&net, Some(r), ConfigGraphMethod::Auto);
    let b2r = Torus::new(side).ball_size(2 * r) as f64 - 1.0;
    let p_share = 1.0 - (1.0 - m as f64 / n as f64).powi(m as i32);
    let predict = b2r * p_share;
    let mean = h.degree_stats().mean;
    assert!(
        (mean / predict - 1.0).abs() < 0.2,
        "Δ prediction off: measured {mean:.1} vs {predict:.1}"
    );
    // Almost-regularity: max/min within a constant factor.
    assert!(h.regularity_ratio() < 3.0, "ratio {}", h.regularity_ratio());
}

#[test]
fn kp_theorem5_bound_respected_by_graph_process() {
    // On a dense circulant graph the measured max load must sit below the
    // (loose) KP bound and above the two-choice floor.
    let n = 4096u32;
    let g = paba::topology::circulant_graph(n, 64); // Δ = 128
    let mut worst = 0u32;
    for seed in 0..5 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let res = paba::ballsbins::graph_two_choice(&g, n as u64, &mut rng);
        worst = worst.max(res.max_load());
    }
    let bound = theory::kp_max_load_bound(n as f64, 128.0);
    if bound.is_finite() {
        assert!(
            (worst as f64) <= bound.max(6.0),
            "KP bound violated: {worst} > {bound:.1}"
        );
    }
    assert!(worst >= 2, "suspiciously perfect balance");
}
