//! **Lemma 1** — Voronoi cell sizes under Strategy I.
//!
//! Claim: under Uniform popularity the largest cell of any file's Voronoi
//! tessellation is `O(K log n / M)` w.h.p., every cell fits in an
//! `r × r` sub-grid with `r = O(√(K log n / M))`, and in the sparse regime
//! (`K = n^{1−ε}`, `M = Θ(1)`) some cell has size `Θ(K log n / M)`.
//!
//! We sweep `n` with `K = n^{0.5}`, `M ∈ {1, 4}`, measure the max cell
//! size and max cell radius over all files, and normalize by the lemma's
//! envelopes.

use super::*;
use paba_core::VoronoiComputer;

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(5, 60, 500);
    out.header(
        "Lemma 1: max Voronoi cell size = Theta(K log n / M)",
        "Lemma 1 (K=n^0.5, M in {1,4}, Uniform)",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(
        vec![23, 45],
        vec![23, 32, 45, 64, 91],
        vec![23, 32, 45, 64, 91, 128],
    );
    let cache_sizes = [1u32, 4];

    let mut grid: Vec<NetPoint> = Vec::new();
    for &m in &cache_sizes {
        for &s in &sides {
            let n = s * s;
            let k = (n as f64).sqrt().round() as u32;
            grid.push(NetPoint::uniform(s, k, m));
        }
    }

    // Per run: build a placement, compute the tessellation of every cached
    // file, record the largest cell and largest cell radius seen.
    let outcomes = super::sweep(cfg, &grid, runs, cfg.seed, |p, _run, rng| {
        let net = p.build(rng);
        let mut vc = VoronoiComputer::new(net.n());
        let mut max_cell = 0u32;
        let mut max_radius = 0u32;
        let mut replicas: Vec<u32> = Vec::new();
        for f in 0..net.k() {
            let cnt = net.placement().replica_count(f);
            if cnt == 0 {
                continue;
            }
            replicas.clear();
            net.placement().for_each_replica(f, |v| replicas.push(v));
            let (sizes, radius) = vc.cell_sizes(net.topo(), &replicas);
            max_cell = max_cell.max(sizes.values().copied().max().unwrap_or(0));
            max_radius = max_radius.max(radius);
        }
        (max_cell as f64, max_radius as f64)
    });

    let mut table = Table::new([
        "n",
        "K",
        "M",
        "max cell",
        "K ln n / M",
        "cell / envelope",
        "max radius",
        "sqrt(K ln n/M)",
    ]);
    for (mi, &m) in cache_sizes.iter().enumerate() {
        for (si, &s) in sides.iter().enumerate() {
            let idx = mi * sides.len() + si;
            let p = &grid[idx];
            let n = (s * s) as f64;
            let envelope = p.k as f64 * n.ln() / m as f64;
            let cell = outcomes[idx].summarize(|o| o.0);
            let radius = outcomes[idx].summarize(|o| o.1);
            table.push_row([
                format!("{}", s * s),
                format!("{}", p.k),
                format!("{m}"),
                format!("{:.1}", cell.mean),
                format!("{envelope:.1}"),
                format!("{:.3}", cell.mean / envelope),
                format!("{:.1}", radius.mean),
                format!("{:.1}", envelope.sqrt()),
            ]);
        }
    }
    out.table("lemma1_voronoi", table);

    out.note(
        "Lemma 1 check: 'cell / envelope' stays bounded (O(K log n/M) upper bound) \
         and bounded away from 0 at M=Θ(1) (the matching lower bound); the max \
         radius tracks sqrt(K ln n / M).",
    );
}
