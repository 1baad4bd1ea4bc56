//! **Theorem 3 table (the paper's equation (1))** — communication-cost
//! scaling of Strategy I under Zipf popularity, across the five γ regimes.
//!
//! For each `γ ∈ {0.5, 1, 1.5, 2, 2.5}` we sweep the library size `K` at
//! fixed `M`, fit the power-law exponent of the measured cost `C(K)`, and
//! compare it against the regime exponent of equation (1):
//!
//! | regime      | prediction                | exponent in K |
//! |-------------|---------------------------|---------------|
//! | `0 < γ < 1` | `Θ(√(K/M))`               | 0.5           |
//! | `γ = 1`     | `Θ(√(K/(M log K)))`       | 0.5 − o(1)    |
//! | `1 < γ < 2` | `Θ(K^{1−γ/2}/√M)`         | 1 − γ/2       |
//! | `γ = 2`     | `Θ(log K/√M)`             | 0 (+ log)     |
//! | `γ > 2`     | `Θ(1/√M)`                 | 0             |
//!
//! **Finite-size subtlety.** For `γ ∈ (0, 2)` the exponent is carried by
//! *tail* files (the `Σ √p_j` series), so the network must be large
//! enough that tail files actually have replicas: request-weighted
//! coverage needs `n·M ≳ 5·K^γ·Λ(γ)`. We therefore scale the torus with
//! the regime (the `coverage` column verifies it); for `γ ≥ 2` the tail
//! contributes nothing and a small torus suffices.

use super::*;
use paba_popularity::Popularity;
use paba_theory::{zipf_cost_exponent_in_k, CostRegime};

/// Request-weighted coverage of a realized placement: the probability that
/// a popularity-drawn file has at least one replica.
fn coverage(net: &paba_core::CacheNetwork<paba_topology::Torus>) -> f64 {
    (0..net.k())
        .filter(|&f| net.placement().replica_count(f) > 0)
        .map(|f| net.library().probability(f))
        .sum()
}

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(6, 60, 500);
    out.header(
        "Theorem 3 / eq. (1): Zipf communication-cost regimes, Strategy I",
        "Theorem 3 (M=3, K swept, Zipf gamma in {0.5,1,1.5,2,2.5}; torus sized per regime)",
        cfg,
        runs,
    );

    let m = 3u32; // M = Θ(1), as Theorem 3's Zipf case requires
    let ks: Vec<u32> = cfg.pick(
        vec![200, 800],
        vec![200, 400, 800, 1600, 3200],
        vec![200, 400, 800, 1600, 3200, 6400],
    );
    // (γ, torus side): the side grows with γ ∈ (0,2) so the Zipf tail is
    // actually cached (see module docs); γ ≥ 2 saturates regardless.
    let gammas: Vec<(f64, u32)> = cfg.pick(
        vec![(0.5, 64), (1.0, 104), (1.5, 104), (2.0, 45), (2.5, 45)],
        vec![(0.5, 104), (1.0, 208), (1.5, 208), (2.0, 45), (2.5, 45)],
        vec![(0.5, 104), (1.0, 208), (1.5, 528), (2.0, 45), (2.5, 45)],
    );

    let points: Vec<NetPoint> = gammas
        .iter()
        .flat_map(|&(g, side)| {
            ks.iter().map(move |&k| {
                let mut p = NetPoint::uniform(side, k, m);
                p.popularity = Popularity::zipf(g);
                p
            })
        })
        .collect();

    // Strategy I's cost, plus the realized placement's coverage, per run.
    let outcomes = super::sweep(cfg, &points, runs, cfg.seed, |p, _run, rng| {
        let net = p.build(rng);
        let cov = coverage(&net);
        let mut s = paba_core::NearestReplica::new();
        let cost = paba_core::simulate(&net, &mut s, net.n() as u64, rng).comm_cost();
        (cost, cov)
    });

    // Raw measured costs + coverage.
    let mut raw = Table::new(["gamma", "n", "K", "cost C", "coverage"]);
    for (gi, &(g, side)) in gammas.iter().enumerate() {
        for (ki, &k) in ks.iter().enumerate() {
            let idx = gi * ks.len() + ki;
            let c = outcomes[idx].summarize(|o| o.0);
            let cov = outcomes[idx].summarize(|o| o.1);
            raw.push_row([
                format!("{g}"),
                format!("{}", side * side),
                format!("{k}"),
                format!("{:.3}", c.mean),
                format!("{:.3}", cov.mean),
            ]);
        }
    }
    out.table("table_thm3_costs", raw);

    // Fitted exponents vs theory.
    let mut fit_table = Table::new([
        "gamma",
        "regime",
        "fitted exponent",
        "predicted exponent",
        "R^2",
        "match",
    ]);
    for (gi, &(g, _side)) in gammas.iter().enumerate() {
        let pts: Vec<(f64, f64)> = ks
            .iter()
            .enumerate()
            .map(|(ki, &k)| {
                (
                    k as f64,
                    outcomes[gi * ks.len() + ki].summarize(|o| o.0).mean,
                )
            })
            .collect();
        let fit = paba_util::fit_loglog(&pts).expect("fit");
        let predict = zipf_cost_exponent_in_k(g);
        // γ=1/γ=1.5 carry log corrections or residual coverage loss at
        // laptop n; widen their tolerance and say so.
        let tol = if g > 0.5 && g < 2.0 { 0.15 } else { 0.08 };
        let ok = (fit.slope - predict).abs() <= tol;
        fit_table.push_row([
            format!("{g}"),
            format!("{:?}", CostRegime::classify(g)),
            format!("{:.3} ± {:.3}", fit.slope, fit.slope_std_err),
            format!("{predict:.3}"),
            format!("{:.4}", fit.r_squared),
            if ok { "yes".into() } else { "off".to_string() },
        ]);
    }
    out.table("table_thm3_exponents", fit_table);

    out.note(
        "Paper check: exponents fall from 1/2 (gamma<=1) through 1-gamma/2 to 0 \
         (gamma>=2) -- skew makes cost library-size-independent, eq. (1). \
         gamma=1 carries a -1/2 log K correction; gamma=1.5 needs the larger \
         torus (coverage column ~1) for its tail-driven exponent.",
    );
}
