//! **Figure 1** — maximum load of Strategy I (nearest replica) versus the
//! number of servers, one curve per cache size.
//!
//! Paper setup: torus, `K = 100` files, Uniform popularity, cache sizes
//! `M ∈ {1, 2, 10, 100}`, `n ∈ [100, 3025]`, 10000 runs per point.
//! Expected shape: slow logarithmic growth in `n` (Theorem 1), with larger
//! caches giving a flatter, lower curve (more uniform Voronoi cells).

use super::*;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(20, 400, 10_000);
    out.header(
        "Figure 1: max load vs n, Strategy I (nearest replica)",
        "Fig. 1 (K=100, Uniform, M in {1,2,10,100})",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(
        vec![10, 20, 32],
        vec![10, 15, 20, 25, 30, 35, 40, 45, 50, 55],
        vec![10, 15, 20, 25, 30, 35, 40, 45, 50, 55],
    );
    let cache_sizes = [1u32, 2, 10, 100];
    let k = 100u32;

    let points: Vec<(NetPoint, StrategySpec)> = cache_sizes
        .iter()
        .flat_map(|&m| {
            sides
                .iter()
                .map(move |&s| (NetPoint::uniform(s, k, m), StrategySpec::NEAREST))
        })
        .collect();
    let results = sweep_points(cfg, &points, runs, cfg.seed);

    let mut table = Table::new(["n", "M=1", "M=2", "M=10", "M=100"]);
    for (si, &side) in sides.iter().enumerate() {
        let row: Vec<String> = std::iter::once(format!("{}", side * side))
            .chain((0..cache_sizes.len()).map(|mi| {
                let idx = mi * sides.len() + si;
                pm(&results[idx].max_load)
            }))
            .collect();
        table.push_row(row);
    }
    out.table("fig1_maxload_nearest", table);

    out.note(
        "Paper check: each column grows ~ log n (Theorem 1); larger M lowers the curve \
         (paper's Fig. 1 spans ~4.3 at n=100 to ~7.5 at n=3025 for M=1).",
    );
}
