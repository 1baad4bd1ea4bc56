//! **Figure 3** — maximum load of Strategy II with `r = ∞` versus the
//! number of servers, one curve per cache size.
//!
//! Paper setup: torus, `K = 2000` files, Uniform popularity,
//! `M ∈ {1, 2, 10, 100}`, `n` up to `1.2·10⁵`, 800 runs per point.
//!
//! This is the paper's key qualitative plot: for `M = 1` the curve *rises*
//! while replication `nM/K` is low (the two choices are correlated —
//! Example 2's memory bottleneck), then *falls* once `n ≳ 5·10⁴` gives
//! every file enough replicas for the power of two choices to kick in.
//! For `M ≥ 10` the curve is flat-low everywhere.

use super::*;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(5, 60, 800);
    out.header(
        "Figure 3: max load vs n, Strategy II (r = inf)",
        "Fig. 3 (K=2000, Uniform, M in {1,2,10,100})",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(
        vec![32, 64, 128],
        vec![32, 45, 64, 90, 128, 181, 256, 330],
        vec![32, 45, 64, 90, 128, 181, 226, 256, 286, 315, 330, 346],
    );
    let cache_sizes = [1u32, 2, 10, 100];
    let k = 2000u32;

    let points: Vec<(NetPoint, StrategySpec)> = cache_sizes
        .iter()
        .flat_map(|&m| {
            sides
                .iter()
                .map(move |&s| (NetPoint::uniform(s, k, m), StrategySpec::two_choice(None)))
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
    out.table("fig3_maxload_twochoice", table);

    out.note(
        "Paper check: M=1 rises toward n ≈ 10^4 (correlated choices, max ~10 in the \
         paper) then drops once n > 5*10^4 (enough replication); M=10/100 stay ~3-4 \
         throughout. Transition region 10^4 < n < 5*10^4 shows mixed behaviour.",
    );
}
