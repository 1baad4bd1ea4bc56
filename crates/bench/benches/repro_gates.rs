//! `bench repro_gates` — the theorem-gated reproduction suite of
//! `paba-repro` as a bench target: run every experiment at the
//! environment-selected scale, print the gate table, and write
//! `BENCH_repro.json` at the workspace root (the golden-regeneration
//! path; CI's `suite-smoke` job diffs fresh runs against the committed
//! copy via `paba repro --quick --check`).
//!
//! Knobs: `PABA_SCALE=quick|default|full`, `PABA_SEED`, `PABA_RUNS`.

use paba_repro::{gates_table, ReproConfig, Suite};
use paba_util::envcfg::EnvCfg;
use std::path::PathBuf;

fn main() {
    let env = EnvCfg::from_env();
    paba_bench::header(
        "repro_gates: theorem-gated reproduction suite",
        "Thm 1-2 vs 4/6 growth separation, Thm 4 trade-off, Lemma 2 goodness",
        &env,
        1,
    );
    let mut cfg = ReproConfig::new(env.scale);
    cfg.seed = env.seed;
    cfg.runs_override = env.runs_override;
    cfg.verbose = true;
    let artifact = Suite::Repro.run(&cfg, None);
    paba_bench::emit("repro_gates", &gates_table(&artifact));
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_repro.json");
    match artifact.write(&out) {
        Ok(()) => println!("(JSON: {})", out.display()),
        Err(e) => eprintln!("failed to write BENCH_repro.json: {e}"),
    }
    assert!(
        artifact.all_gates_passed(),
        "reproduction gates failed — see table above"
    );
}
