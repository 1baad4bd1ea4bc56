//! **Theorems 1 & 2** — maximum-load scaling of Strategy I.
//!
//! * Theorem 1: `K = n^{1−ε}`, `M = Θ(1)` ⇒ `L = Θ(log n)`. We sweep `n`
//!   with `ε = 0.5`, `M = 2` and check `L / ln n` is roughly constant.
//! * Theorem 2: `K = n`, `M = n^α` (`α = 0.25`) ⇒
//!   `L ∈ [Ω(log n/log log n), O(log n)]`. We check the measured load sits
//!   between the two normalized envelopes.

use super::*;
use paba_theory::one_choice_max_load;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(10, 200, 2_000);
    out.header(
        "Theorems 1-2: Strategy I max-load scaling laws",
        "Thm 1 (K=n^0.5, M=2) and Thm 2 (K=n, M=n^0.25)",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(
        vec![16, 32, 64],
        vec![16, 23, 32, 45, 64, 91],
        vec![16, 23, 32, 45, 64, 91, 128],
    );

    // --- Theorem 1 regime ---
    let points_t1: Vec<(NetPoint, StrategySpec)> = sides
        .iter()
        .map(|&s| {
            let n = s * s;
            let k = (n as f64).sqrt().round() as u32; // K = n^{1/2}
            (NetPoint::uniform(s, k, 2), StrategySpec::NEAREST)
        })
        .collect();
    let res_t1 = sweep_points(cfg, &points_t1, runs, cfg.seed);

    let mut t1 = Table::new(["n", "K=n^0.5", "L (mean)", "ln n", "L / ln n"]);
    let mut ratios = Vec::new();
    for (i, &s) in sides.iter().enumerate() {
        let n = (s * s) as f64;
        let l = res_t1[i].max_load.mean;
        ratios.push(l / n.ln());
        t1.push_row([
            format!("{}", s * s),
            format!("{}", points_t1[i].0.k),
            format!("{l:.3}"),
            format!("{:.2}", n.ln()),
            format!("{:.3}", l / n.ln()),
        ]);
    }
    out.table("thm1_logn_scaling", t1);
    let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
        / ratios.iter().cloned().fold(f64::MAX, f64::min);
    out.note(format!(
        "Theorem 1 check: L/ln n spread across the sweep = {spread:.2}x \
         (Θ(log n) predicts an O(1) spread; paper proves matching bounds).\n"
    ));

    // --- Theorem 2 regime ---
    let points_t2: Vec<(NetPoint, StrategySpec)> = sides
        .iter()
        .map(|&s| {
            let n = s * s;
            let m = ((n as f64).powf(0.25).round() as u32).max(1); // M = n^{1/4}
            (NetPoint::uniform(s, n, m), StrategySpec::NEAREST)
        })
        .collect();
    let res_t2 = sweep_points(cfg, &points_t2, runs, cfg.seed ^ 0x7777);

    let mut t2 = Table::new([
        "n",
        "M=n^0.25",
        "L (mean)",
        "lower ln n/lnln n",
        "upper ln n",
        "within band",
    ]);
    for (i, &s) in sides.iter().enumerate() {
        let n = (s * s) as f64;
        let l = res_t2[i].max_load.mean;
        let lower = one_choice_max_load(n);
        let upper = n.ln();
        // Θ-bounds hide constants; require the measurement within generous
        // constant multiples of the envelopes.
        let ok = l >= 0.3 * lower && l <= 3.0 * upper;
        t2.push_row([
            format!("{}", s * s),
            format!("{}", points_t2[i].0.m),
            format!("{l:.3}"),
            format!("{lower:.2}"),
            format!("{upper:.2}"),
            if ok { "yes".into() } else { "OFF".to_string() },
        ]);
    }
    out.table("thm2_band_scaling", t2);
    out.note(
        "Theorem 2 check: measured L sits between the Ω(log n/log log n) and \
         O(log n) envelopes (constants absorbed).",
    );
}
