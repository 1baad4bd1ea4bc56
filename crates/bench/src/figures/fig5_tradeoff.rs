//! **Figure 5** — the maximum-load / communication-cost trade-off of
//! Strategy II as the proximity radius `r` sweeps, one curve per cache
//! size.
//!
//! Paper setup: torus of `n = 2025`, `K = 500` files, Uniform popularity,
//! `M ∈ {1, 2, 5, 10, 20, 50, 200}`, 5000 runs per point.
//!
//! Expected regimes (paper §V): in high memory (`M = 50, 200`) the power
//! of two choices arrives at negligible cost; in low memory (`M = 1`) no
//! amount of communication buys balance (Example 2's correlation); in
//! between, a genuine trade-off curve appears.

use super::*;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(10, 150, 5_000);
    out.header(
        "Figure 5: max load vs communication cost trade-off, Strategy II",
        "Fig. 5 (n=2025, K=500, Uniform, M in {1,2,5,10,20,50,200}, r swept)",
        cfg,
        runs,
    );

    let side = 45u32;
    let radii: Vec<Option<u32>> = cfg.pick(
        vec![Some(2), Some(8), None],
        vec![
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(6),
            Some(8),
            Some(12),
            Some(16),
            Some(22),
            None,
        ],
        vec![
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(5),
            Some(6),
            Some(8),
            Some(10),
            Some(12),
            Some(16),
            Some(20),
            Some(22),
            None,
        ],
    );
    let cache_sizes = [1u32, 2, 5, 10, 20, 50, 200];
    let k = 500u32;

    let points: Vec<(NetPoint, StrategySpec)> = cache_sizes
        .iter()
        .flat_map(|&m| {
            radii
                .iter()
                .map(move |&r| (NetPoint::uniform(side, k, m), StrategySpec::two_choice(r)))
        })
        .collect();
    let results = sweep_points(cfg, &points, runs, cfg.seed);

    // One table per cache size: rows are radii, columns (cost, max load) —
    // the (x, y) pairs of the paper's scatter curves.
    for (mi, &m) in cache_sizes.iter().enumerate() {
        let mut table = Table::new(["r", "cost C (hops)", "max load L", "fallback frac"]);
        for (ri, r) in radii.iter().enumerate() {
            let idx = mi * radii.len() + ri;
            let s = &results[idx];
            table.push_row([
                r.map_or("inf".to_string(), |x| x.to_string()),
                format!("{:.3}", s.cost.mean),
                format!("{:.3}", s.max_load.mean),
                format!("{:.4}", s.fallback.mean),
            ]);
        }
        out.note(format!("### M = {m}\n"));
        out.table(format!("fig5_tradeoff_m{m}"), table);
    }

    out.note(
        "Paper check: M=200/50 reach max load ~3.6 by cost ~2-4 hops; M=1 stays ~8 \
         regardless of cost; intermediate M trace a visible trade-off curve \
         (paper's Fig. 5 x-range 0-20 hops, y-range 3.5-9).",
    );
}
