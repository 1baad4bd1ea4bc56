//! Telemetry and tracing, end to end: the compile-tested version of the
//! README's `AtomicRecorder` snippet, extended with a `TraceRecorder`
//! pass that samples per-request events and a load-evolution time series.
//!
//! ```text
//! cargo run --release --example telemetry_profile
//! ```

use paba::prelude::*;
use paba::telemetry::{AtomicRecorder, Sampling, TraceConfig, TraceRecorder};
use paba_core::{simulate_source_profiled, IidUniform};
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2017);
    let net = CacheNetwork::builder()
        .torus_side(30)
        .library(200, Popularity::Uniform)
        .cache_size(8)
        .build(&mut rng);

    // --- Aggregate counters: the README snippet. -----------------------
    let rec = AtomicRecorder::new();
    let mut strat = ProximityChoice::two_choice(Some(5)).with_recorder(&rec);
    let mut source = IidUniform::new();
    simulate_source_profiled(
        &net,
        &mut strat,
        &mut source,
        net.n() as u64,
        &mut rng,
        &rec,
    );
    let snapshot = rec.snapshot(); // counters + histograms, mergeable
    println!("{}", snapshot.table());

    // --- Time-resolved tracing: sampled events + load series. ----------
    let tracer = TraceRecorder::new(TraceConfig {
        sampling: Sampling::OneIn(64), // keep every 64th request
        stride: 128,                   // series point every 128 requests
        max_events: 4096,
        seed: 2017,
    });
    tracer.begin_run(0);
    let mut strat = ProximityChoice::two_choice(Some(5)).with_recorder(&tracer);
    let mut source = IidUniform::new();
    simulate_source_profiled(
        &net,
        &mut strat,
        &mut source,
        net.n() as u64,
        &mut rng,
        &tracer,
    );

    let runs = tracer.into_parts();
    let run = &runs[0];
    println!(
        "sampled {} of {} requests; first event: {:?}",
        run.events.len(),
        run.requests,
        run.events.first()
    );
    println!("load evolution (every {} requests):", run.series.stride);
    for p in &run.series.points {
        println!(
            "  after {:>5} requests: max {:>2.0}, mean {:.3}, p99 {:.0}",
            p.requests, p.max_load, p.mean_load, p.p99
        );
    }
}
