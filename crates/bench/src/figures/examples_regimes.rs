//! **Examples 1–4 and baselines** — the boundary regimes of §IV, plus the
//! balls-into-bins reference processes and the grid-vs-torus ablation
//! (Remark 1).
//!
//! * Example 1: `M = K`, `r = ∞` — Strategy II ≡ classic two-choice.
//! * Example 2: `K = n`, `M = Θ(1)`, `r = ∞` — memory correlation kills
//!   the power of two choices (`L = Ω(log n / log log n / M)`).
//! * Example 3: `K = n^{1−ε}`, `M = 1`, `r = ∞` — disjoint subproblems,
//!   power of two choices survives (`L = O(log log n)`).
//! * Example 4: `M = K`, `r = 1` — proximity correlation kills it
//!   (`L = Ω(log n / log log n)/5`).
//! * Kenthapadi–Panigrahi baseline on circulant graphs of varying degree.
//! * Remark 1: torus vs bounded grid, same parameters.

use super::*;
use paba_core::{simulate, CacheNetwork, PlacementPolicy, ProximityChoice};
use paba_theory::{kp_max_load_bound, one_choice_max_load, two_choice_max_load};
use rand::SeedableRng;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(8, 100, 1_000);
    out.header(
        "Examples 1-4, classic baselines, and the Remark-1 ablation",
        "Section IV examples + [5]/[10] reference processes",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(
        vec![32, 91],
        vec![32, 45, 64, 91, 128],
        vec![32, 64, 91, 128, 181, 256],
    );

    // ------------------------------------------------------------------
    // Examples 1, 2, 3, 4 as Strategy II configurations.
    // ------------------------------------------------------------------
    let mut points: Vec<(NetPoint, StrategySpec)> = Vec::new();
    for &s in &sides {
        let n = s * s;
        // Example 1: M=K (full), r=∞.
        let mut e1 = NetPoint::uniform(s, 16, 16);
        e1.policy = PlacementPolicy::FullLibrary;
        points.push((e1, StrategySpec::two_choice(None)));
        // Example 2: K=n, M=1, r=∞.
        points.push((NetPoint::uniform(s, n, 1), StrategySpec::two_choice(None)));
        // Example 3: K=n^{1/2}, M=1, r=∞.
        let k3 = (n as f64).sqrt().round() as u32;
        points.push((NetPoint::uniform(s, k3, 1), StrategySpec::two_choice(None)));
        // Example 4: M=K (full), r=1.
        let mut e4 = NetPoint::uniform(s, 16, 16);
        e4.policy = PlacementPolicy::FullLibrary;
        points.push((e4, StrategySpec::two_choice(Some(1))));
    }
    let res = sweep_points(cfg, &points, runs, cfg.seed);

    let mut table = Table::new([
        "n",
        "Ex1: M=K r=inf",
        "Ex2: K=n M=1",
        "Ex3: K=sqrt(n) M=1",
        "Ex4: M=K r=1",
        "lnln n/ln 2",
        "ln n/lnln n",
    ]);
    for (i, &s) in sides.iter().enumerate() {
        let n = (s * s) as f64;
        table.push_row([
            format!("{}", s * s),
            format!("{:.2}", res[4 * i].max_load.mean),
            format!("{:.2}", res[4 * i + 1].max_load.mean),
            format!("{:.2}", res[4 * i + 2].max_load.mean),
            format!("{:.2}", res[4 * i + 3].max_load.mean),
            format!("{:.2}", two_choice_max_load(n)),
            format!("{:.2}", one_choice_max_load(n)),
        ]);
    }
    out.table("examples_1_to_4", table);
    out.note(
        "Check: Ex1/Ex3 track the lnln n column (power of two choices); Ex2/Ex4 \
         track the ln n/lnln n column (correlation destroys it).\n",
    );

    // ------------------------------------------------------------------
    // Classic balls-into-bins baselines at m = n.
    // ------------------------------------------------------------------
    let bb_points: Vec<u32> = sides.iter().map(|&s| s * s).collect();
    let bb = super::sweep(cfg, &bb_points, runs, cfg.seed ^ 0x1111, |&n, _r, rng| {
        let one = paba_ballsbins::one_choice(n, n as u64, rng).max_load() as f64;
        let two = paba_ballsbins::two_choice(n, n as u64, rng).max_load() as f64;
        let three = paba_ballsbins::d_choice(n, n as u64, 3, rng).max_load() as f64;
        let beta = paba_ballsbins::one_plus_beta(n, n as u64, 0.5, rng).max_load() as f64;
        (one, two, three, beta)
    });
    let mut t2 = Table::new([
        "n",
        "one-choice",
        "theory",
        "two-choice",
        "theory",
        "Greedy[3]",
        "(1+0.5)-choice",
    ]);
    for (i, &s) in sides.iter().enumerate() {
        let n = (s * s) as f64;
        t2.push_row([
            format!("{}", s * s),
            format!("{:.2}", bb[i].summarize(|o| o.0).mean),
            format!("{:.2}", one_choice_max_load(n)),
            format!("{:.2}", bb[i].summarize(|o| o.1).mean),
            format!("{:.2}", two_choice_max_load(n)),
            format!("{:.2}", bb[i].summarize(|o| o.2).mean),
            format!("{:.2}", bb[i].summarize(|o| o.3).mean),
        ]);
    }
    out.table("baselines_ballsbins", t2);

    // ------------------------------------------------------------------
    // Kenthapadi–Panigrahi on circulant graphs: density sweep at fixed n.
    // ------------------------------------------------------------------
    let n_kp = 4096u32;
    let degrees = [2u32, 8, 32, 128, 512];
    // Circulant graphs are deterministic: build each once, share across runs.
    let graphs: Vec<paba_topology::CsrGraph> = degrees
        .iter()
        .map(|&d| paba_topology::circulant_graph(n_kp, d / 2))
        .collect();
    let kp = super::sweep(cfg, &graphs, runs, cfg.seed ^ 0x2222, |g, _r, rng| {
        paba_ballsbins::graph_two_choice(g, n_kp as u64, rng).max_load() as f64
    });
    let mut t3 = Table::new(["degree", "max load", "KP bound (Thm 5)"]);
    for (i, &d) in degrees.iter().enumerate() {
        let bound = kp_max_load_bound(n_kp as f64, d as f64);
        t3.push_row([
            format!("{d}"),
            format!("{:.2}", kp[i].summarize(|&o| o).mean),
            if bound.is_finite() {
                format!("{bound:.1}")
            } else {
                "vacuous".into()
            },
        ]);
    }
    out.table("baselines_kp_density", t3);
    out.note(
        "KP check: the max load falls as the graph densifies, vanishing into the \
         Theta(log log n) regime once Delta >> log^4 n (Theorem 5).\n",
    );

    // ------------------------------------------------------------------
    // Remark 1: torus vs bounded grid.
    // ------------------------------------------------------------------
    let remark1 = super::sweep(cfg, &sides, runs, cfg.seed ^ 0x3333, |&s, _r, rng| {
        let k = 100u32;
        let m = 4u32;
        let torus_net = CacheNetwork::builder()
            .torus_side(s)
            .library(k, paba_popularity::Popularity::Uniform)
            .cache_size(m)
            .build(rng);
        let mut strat = ProximityChoice::two_choice(Some(5));
        let tr = simulate(&torus_net, &mut strat, torus_net.n() as u64, rng);
        let mut g_rng =
            rand::rngs::SmallRng::seed_from_u64(paba_util::mix_seed(cfg.seed ^ 0x3334, s as u64));
        let grid_net = CacheNetwork::builder()
            .torus_side(s)
            .library(k, paba_popularity::Popularity::Uniform)
            .cache_size(m)
            .build_grid(&mut g_rng);
        let mut strat = ProximityChoice::two_choice(Some(5));
        let gr = simulate(&grid_net, &mut strat, grid_net.n() as u64, &mut g_rng);
        (
            tr.max_load() as f64,
            tr.comm_cost(),
            gr.max_load() as f64,
            gr.comm_cost(),
        )
    });
    let mut t4 = Table::new(["n", "torus L", "grid L", "torus C", "grid C"]);
    for (i, &s) in sides.iter().enumerate() {
        t4.push_row([
            format!("{}", s * s),
            format!("{:.2}", remark1[i].summarize(|o| o.0).mean),
            format!("{:.2}", remark1[i].summarize(|o| o.2).mean),
            format!("{:.2}", remark1[i].summarize(|o| o.1).mean),
            format!("{:.2}", remark1[i].summarize(|o| o.3).mean),
        ]);
    }
    out.table("remark1_grid_vs_torus", t4);
    out.note(
        "Remark 1 check: torus and bounded grid agree to within boundary effects \
         (grid slightly worse balance near corners).",
    );
}
