//! **Figure 4** — communication cost of Strategy II with `r = ∞` versus
//! the number of servers, one curve per cache size.
//!
//! Paper setup: as Figure 3. With no proximity constraint the chosen
//! server is essentially a uniform random replica, so the cost grows as
//! the mean torus pair distance `Θ(√n)` — the motivation for the radius-
//! `r` constraint studied in Figure 5.

use super::*;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(5, 40, 800);
    out.header(
        "Figure 4: communication cost vs n, Strategy II (r = inf)",
        "Fig. 4 (K=2000, Uniform, M in {1,2,10,100})",
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

    let mut table = Table::new(["n", "M=1", "M=2", "M=10", "M=100", "mean pair dist"]);
    for (si, &side) in sides.iter().enumerate() {
        let torus = paba_topology::Torus::new(side);
        let row: Vec<String> = std::iter::once(format!("{}", side * side))
            .chain((0..cache_sizes.len()).map(|mi| {
                let idx = mi * sides.len() + si;
                pm(&results[idx].cost)
            }))
            .chain(std::iter::once(format!(
                "{:.2}",
                torus.mean_pair_distance()
            )))
            .collect();
        table.push_row(row);
    }
    out.table("fig4_cost_twochoice", table);

    // Fit the growth exponent of cost vs n for M=10 (mid curve).
    let pts: Vec<(f64, f64)> = sides
        .iter()
        .enumerate()
        .map(|(si, &s)| {
            let idx = 2 * sides.len() + si; // M=10 block
            ((s * s) as f64, results[idx].cost.mean)
        })
        .collect();
    if let Some(fit) = paba_util::fit_loglog(&pts) {
        out.note(format!(
            "Fitted cost ~ n^{:.3} (expected 0.5 = Θ(√n); R² = {:.4}).\n",
            fit.slope, fit.r_squared
        ));
    }
    out.note(
        "Paper check: all four curves track the Θ(√n) mean pair distance and nearly \
         coincide (cache size barely matters once a pair of replicas exists).",
    );
}
