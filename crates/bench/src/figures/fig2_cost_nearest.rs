//! **Figure 2** — communication cost of Strategy I versus cache size, one
//! curve per library size, plus the Theorem 3 closed-form prediction.
//!
//! Paper setup: torus of `n = 2025` servers, Uniform popularity,
//! `K ∈ {100, 1000, 2000}`, `M ∈ [1, 100]`, 10000 runs per point.
//! Expected shape: `C = Θ(√(K/M))` — decreasing in `M`, increasing in `K`.

use super::*;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(10, 200, 10_000);
    out.header(
        "Figure 2: communication cost vs cache size, Strategy I",
        "Fig. 2 (n=2025, Uniform, K in {100,1000,2000})",
        cfg,
        runs,
    );

    let side = 45u32; // n = 2025, the paper's torus
    let cache_sizes: Vec<u32> = cfg.pick(
        vec![1, 10, 100],
        vec![1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100],
        vec![1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    );
    let libraries = [100u32, 1000, 2000];

    let points: Vec<(NetPoint, StrategySpec)> = libraries
        .iter()
        .flat_map(|&k| {
            cache_sizes
                .iter()
                .map(move |&m| (NetPoint::uniform(side, k, m), StrategySpec::NEAREST))
        })
        .collect();
    let results = sweep_points(cfg, &points, runs, cfg.seed);

    let mut table = Table::new([
        "M",
        "K=100",
        "theory(100)",
        "K=1000",
        "theory(1000)",
        "K=2000",
        "theory(2000)",
    ]);
    for (mi, &m) in cache_sizes.iter().enumerate() {
        let mut row = vec![format!("{m}")];
        for (ki, &k) in libraries.iter().enumerate() {
            let idx = ki * cache_sizes.len() + mi;
            row.push(pm(&results[idx].cost));
            // Exact series of the paper's eq. (14): Σ p_j / √(1−(1−p_j)^M).
            let weights = vec![1.0 / k as f64; k as usize];
            let series = paba_theory::nearest_cost_series(&weights, m);
            row.push(format!("{series:.2}"));
        }
        table.push_row(row);
    }
    out.table("fig2_cost_nearest", table);

    out.note(
        "Paper check: C tracks Θ(√(K/M)) (Theorem 3); the exact series columns use \
         eq. (14) with unit constant. Paper's Fig. 2 peaks ~23 hops at K=2000, M=1.",
    );
}
