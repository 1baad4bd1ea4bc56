//! The static workloads: Strategy II (two choices within radius `r`) on
//! a sparse placement of a 316 × 316 torus, several runs of `n`
//! sequential requests on one network.
//!
//! The end-to-end run times `simulate_source`. The traced run drives the
//! same loop through the public calls (`RequestSource::next_request`,
//! `Strategy::assign`, `SimReport::record`), times 1 request in
//! [`SAMPLE_EVERY`], and must reproduce `simulate_source` bit for bit.

use crate::net::{repeat_setup, same_placement, NetSpec};
use crate::probe::{
    check_assignment, clock_read_ns, median, mix, run_seed, Checks, Layers, PathRecorder, Timing,
};
use crate::{Args, Results};
use paba_core::{
    simulate_source, CacheNetwork, FallbackKind, IidUniform, PlacementPolicy, ProximityChoice,
    RequestSource, SimReport, Strategy,
};
use paba_popularity::Popularity;
use paba_topology::Torus;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

pub struct StaticSpec {
    net: NetSpec,
    radius: u32,
}

/// Uniform popularity, r = 5: nearly every ball is empty, so requests end
/// in the windowed sampler and the nearest-replica fallback.
pub const UNIFORM_R5: StaticSpec = StaticSpec {
    net: NetSpec {
        side: 316,
        k: 10_000,
        popularity: Popularity::Uniform,
        m: 20,
        policy: PlacementPolicy::ProportionalWithReplacement,
    },
    radius: 5,
};

/// Zipf 1.2, r = 10: popular files take the rejection-ball path through
/// `Placement::caches`; a minority still falls back.
pub const ZIPF_R10: StaticSpec = StaticSpec {
    net: NetSpec {
        side: 316,
        k: 10_000,
        popularity: Popularity::Zipf { gamma: 1.2 },
        m: 20,
        policy: PlacementPolicy::ProportionalWithReplacement,
    },
    radius: 10,
};

/// Distinct request streams; timed repetitions cycle through them, and
/// the quality metrics average over them.
const RUNS: usize = 16;
/// Set-up repetitions of the traced run, whose medians are reported.
const SETUP_REPS: usize = 11;
/// The end-to-end run rebuilds the network before every this many timed
/// repetitions, so the set-up samples spread over the measured phase.
const SETUP_EVERY: usize = 4;
/// The traced loop times 1 request in this many.
const SAMPLE_EVERY: u64 = 16;

pub fn run(spec: &StaticSpec, args: &Args) -> Results {
    let mut res = Results::default();
    if args.trace {
        traced(spec, args, &mut res);
    } else {
        untraced(spec, args, &mut res);
    }
    res
}

fn untraced(spec: &StaticSpec, args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let requests = spec.net.nodes();
    let mut timing = Timing::new();
    let mut built = None;
    let mut reports: Vec<SimReport> = Vec::with_capacity(RUNS);
    let start = Instant::now();
    let mut j = 0;
    while j < RUNS || start.elapsed() < args.seconds {
        if j % SETUP_EVERY == 0 {
            drop(built.take());
            let t = Instant::now();
            built = Some(spec.net.build(net_seed));
            timing.setup(t.elapsed().as_secs_f64());
        }
        let net = built.as_ref().expect("built on the first repetition");
        let (report, dt) = simulate_run(net, spec.radius, run_seed(args.seed, j, RUNS), requests);
        timing.repetition(requests, dt, 1);
        if j < RUNS {
            reports.push(report);
        } else {
            res.checks.require(report == reports[j % RUNS], || {
                format!("repetition {j} differs from its first run {}", j % RUNS)
            });
        }
        j += 1;
    }
    let net = built.expect("built on the first repetition");
    timing.report(res, "requests");
    res.note(format!(
        "{j} repetitions of {requests} requests cycling {RUNS} streams"
    ));
    quality(res, &reports);

    // Output checks on every assignment of run 0, outside the timing.
    let rec = PathRecorder::default();
    let checked = public_loop(
        &net,
        spec.radius,
        run_seed(args.seed, 0, RUNS),
        requests,
        &rec,
        None,
        &mut res.checks,
    );
    res.checks.require(checked == reports[0], || {
        "public-call loop differs from simulate_source on run 0".to_string()
    });
    res.attempted = (j as u64 + 1) * requests;
}

fn traced(spec: &StaticSpec, args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let (mut placement_s, mut network_s) = (Vec::new(), Vec::new());
    let (net, _) = repeat_setup(SETUP_REPS, || {
        let (net, p, w) = spec.net.build_split(net_seed);
        placement_s.push(p);
        network_s.push(w);
        net
    });
    res.set("setup.placement_s", median(&mut placement_s));
    res.set("setup.network_s", median(&mut network_s));
    let built = spec.net.build(net_seed);
    res.checks
        .require(same_placement(built.placement(), net.placement()), || {
            "Placement::generate + from_parts differs from the builder".to_string()
        });
    drop(built);

    let clock_ns = clock_read_ns();
    let requests = net.n() as u64;
    let rec = PathRecorder::default();
    let mut layers = Layers::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut nearest_calls = 0;
    let mut run0: Option<SimReport> = None;
    // A discarded warm-up pair: the first run of each kind pays page
    // faults and cold caches.
    let rs = run_seed(args.seed, 0, RUNS);
    simulate_run(&net, spec.radius, rs, requests);
    let warm_rec = PathRecorder::default();
    let warm = Some((&mut Layers::default(), 0));
    public_loop(
        &net,
        spec.radius,
        rs,
        requests,
        &warm_rec,
        warm,
        &mut res.checks,
    );
    let start = Instant::now();
    let mut j = 0;
    // Traced and untraced repetitions of the same stream alternate which
    // goes first, so drift in machine speed hits both alike.
    while j < 2 || start.elapsed() < args.seconds {
        let rs = run_seed(args.seed, j, RUNS);
        let untraced_first = j % 2 == 0;
        let mut untraced = untraced_first.then(|| simulate_run(&net, spec.radius, rs, requests));
        let t = Instant::now();
        let report = public_loop(
            &net,
            spec.radius,
            rs,
            requests,
            &rec,
            Some((&mut layers, j as u64)),
            &mut res.checks,
        );
        traced_s += t.elapsed().as_secs_f64();
        let (expected, dt) =
            untraced.get_or_insert_with(|| simulate_run(&net, spec.radius, rs, requests));
        untraced_s += *dt;
        res.checks.require(report == *expected, || {
            format!("traced repetition {j} differs from simulate_source")
        });
        nearest_calls += report.no_candidate_in_ball;
        if j == 0 {
            run0 = untraced.map(|(r, _)| r);
        }
        j += 1;
    }
    let traced_requests = j as u64 * requests;
    res.strategy_layers(&mut layers, &rec, traced_requests, nearest_calls, clock_ns);
    let layer_sum = layers.source.mean_net(clock_ns)
        + layers.assign.mean_net(clock_ns)
        + layers.record.mean_net(clock_ns);
    res.trace_cost(
        traced_s * 1e9 / traced_requests as f64,
        untraced_s * 1e9 / traced_requests as f64,
        layer_sum,
        true,
    );
    res.note(format!(
        "{j} traced and {j} untraced repetitions of {requests} requests; 1 in {SAMPLE_EVERY} timed"
    ));

    let check_rec = PathRecorder::default();
    let checked = public_loop(
        &net,
        spec.radius,
        run_seed(args.seed, 0, RUNS),
        requests,
        &check_rec,
        None,
        &mut res.checks,
    );
    res.checks.require(Some(&checked) == run0.as_ref(), || {
        "checked run differs from simulate_source on run 0".to_string()
    });
    res.spans = layers.spans.take();
    res.attempted = (2 * j as u64 + 1) * requests;
}

/// One `simulate_source` run; returns the report and its wall seconds.
fn simulate_run(
    net: &CacheNetwork<Torus>,
    radius: u32,
    run_seed: u64,
    requests: u64,
) -> (SimReport, f64) {
    let mut strategy = ProximityChoice::two_choice(Some(radius));
    let mut source = IidUniform::new();
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t = Instant::now();
    let report = simulate_source(net, &mut strategy, &mut source, requests, &mut rng);
    let dt = t.elapsed().as_secs_f64();
    (std::hint::black_box(report), dt)
}

/// The request loop of `simulate_source`, written with the public calls.
/// With `trace`, 1 request in [`SAMPLE_EVERY`] is timed call by call and
/// checked; without it every assignment is checked.
fn public_loop(
    net: &CacheNetwork<Torus>,
    radius: u32,
    run_seed: u64,
    requests: u64,
    rec: &PathRecorder,
    mut trace: Option<(&mut Layers, u64)>,
    checks: &mut Checks,
) -> SimReport {
    let mut strategy = ProximityChoice::two_choice(Some(radius)).with_recorder(rec);
    let mut source = IidUniform::new();
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let mut report = SimReport::new(net.n());
    for i in 0..requests {
        match trace.as_mut() {
            Some((layers, rep)) => {
                if i % SAMPLE_EVERY != 0 {
                    let req = source.next_request(net, &mut rng);
                    let a = strategy.assign(net, &report.loads, req, &mut rng);
                    report.record(a.server, a.hops, a.fallback);
                    continue;
                }
                let id = (*rep << 32) | i;
                rec.take_path();
                let t0 = Instant::now();
                let req = source.next_request(net, &mut rng);
                let t1 = Instant::now();
                let a = strategy.assign(net, &report.loads, req, &mut rng);
                let t2 = Instant::now();
                report.record(a.server, a.hops, a.fallback);
                let t3 = Instant::now();
                let nearest = a.fallback == Some(FallbackKind::NoCandidateInBall);
                layers.span(id, "request", None, t0, t3, None);
                layers.source(id, t0, t1);
                layers.assign(id, t1, t2, rec.take_path(), nearest);
                layers.record(id, t2, t3);
                check_assignment(checks, net, radius, req, a, a.fallback.is_some());
            }
            None => {
                let req = source.next_request(net, &mut rng);
                let a = strategy.assign(net, &report.loads, req, &mut rng);
                check_assignment(checks, net, radius, req, a, a.fallback.is_some());
                report.record(a.server, a.hops, a.fallback);
            }
        }
    }
    let total: u64 = report.loads.iter().map(|&l| l as u64).sum();
    checks.require(
        total == requests && report.total_requests == requests,
        || format!("loads sum to {total}, expected {requests}"),
    );
    report
}

/// Quality guards over the reference runs: the mean per-run maximum load
/// and the mean hops per request (the paper's L and C).
fn quality(res: &mut Results, reports: &[SimReport]) {
    let runs = reports.len() as f64;
    let max_load = reports.iter().map(|r| r.max_load() as f64).sum::<f64>() / runs;
    let hops: u64 = reports.iter().map(|r| r.total_hops).sum();
    let requests: u64 = reports.iter().map(|r| r.total_requests).sum();
    let fallbacks: u64 = reports.iter().map(|r| r.no_candidate_in_ball).sum();
    res.set("max_load_mean", max_load);
    res.set("comm_cost_hops", hops as f64 / requests as f64);
    res.note(format!(
        "quality over {} runs: nearest-replica fallback on {:.4} of requests",
        reports.len(),
        fallbacks as f64 / requests as f64
    ));
    for r in reports {
        let total: u64 = r.loads.iter().map(|&l| l as u64).sum();
        res.checks.require(total == r.total_requests, || {
            format!("loads sum to {total}, expected {}", r.total_requests)
        });
    }
}
