//! The churn workload: Strategy II (r = 5) on a 40 × 40 torus with a
//! sparse Zipf 0.8 placement, 20% of nodes taken down and brought back
//! and 100 content inserts interleaved with 4n requests, two-choices
//! repair.
//!
//! The end-to-end run times `simulate_churn`. The traced run drives the
//! same loop through the public calls (`ChurnEngine::{new, apply,
//! failover, is_alive}` beside the request calls), times every churn
//! event and 1 request in [`SAMPLE_EVERY`], and must reproduce
//! `simulate_churn` bit for bit.

use crate::net::{repeat_setup, same_placement, NetSpec};
use crate::probe::{
    check_assignment, clock_read_ns, median, mix, ns, run_seed, Checks, Layers, PathRecorder,
    Samples, Timing,
};
use crate::{Args, Results};
use paba_churn::{
    simulate_churn, ChurnCfg, ChurnEngine, ChurnEventKind, ChurnReport, ChurnSchedule,
    RepairPolicy, ScheduleSpec,
};
use paba_core::{
    Assignment, CacheNetwork, FallbackKind, IidUniform, PlacementPolicy, ProximityChoice,
    RequestSource, SimReport, Strategy,
};
use paba_popularity::Popularity;
use paba_telemetry::NullRecorder;
use paba_topology::Torus;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const NET: NetSpec = NetSpec {
    side: 40,
    k: 1_000,
    popularity: Popularity::Zipf { gamma: 0.8 },
    m: 10,
    policy: PlacementPolicy::ProportionalWithReplacement,
};
const RADIUS: u32 = 5;
const SCHEDULE: ScheduleSpec = ScheduleSpec {
    cycle_fraction: 0.2,
    graceful_fraction: 0.5,
    inserts: 100,
};
/// Distinct request streams; timed repetitions cycle through them.
const RUNS: usize = 8;
/// Set-up repetitions of the traced run, whose medians are reported.
const SETUP_REPS: usize = 9;
/// Reference-kernel calls after each repetition (about a second each).
const REFERENCE_CALLS: usize = 8;
/// The traced loop times 1 request in this many (every churn event is
/// timed).
const SAMPLE_EVERY: u64 = 4;

/// Per-seed inputs shared by every repetition.
struct Setup {
    net: CacheNetwork<Torus>,
    schedule: ChurnSchedule,
    cfg: ChurnCfg,
    requests: u64,
}

/// One run's outputs: the load/cost report, the churn accounting and
/// the final network.
type RunOutput = (SimReport, ChurnReport, CacheNetwork<Torus>);

pub fn run(args: &Args) -> Results {
    let mut res = Results::default();
    if args.trace {
        traced(args, &mut res);
    } else {
        untraced(args, &mut res);
    }
    res
}

fn cfg(seed: u64) -> ChurnCfg {
    ChurnCfg {
        repair: RepairPolicy::TwoChoices,
        salt: mix(seed, 3),
        ..ChurnCfg::default()
    }
}

/// The schedule and the membership ring of `net`; returns the schedule.
fn schedule_and_ring(net: &CacheNetwork<Torus>, seed: u64) -> ChurnSchedule {
    let requests = 4 * net.n() as u64;
    let schedule = ChurnSchedule::generate(&SCHEDULE, net.n(), net.k(), requests, mix(seed, 2));
    std::hint::black_box(ChurnEngine::new(net, cfg(seed)));
    schedule
}

fn untraced(args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let mut timing = Timing::new();
    let mut built = None;
    let mut outputs: Vec<RunOutput> = Vec::with_capacity(RUNS);
    let start = Instant::now();
    let mut j = 0;
    while j < RUNS || start.elapsed() < args.seconds {
        // Network, schedule and ring are rebuilt before every repetition,
        // so the set-up samples spread over the measured phase.
        drop(built.take());
        let t = Instant::now();
        let net = NET.build(net_seed);
        let schedule = schedule_and_ring(&net, args.seed);
        timing.setup(t.elapsed().as_secs_f64());
        let setup = built.insert(Setup {
            requests: 4 * net.n() as u64,
            net,
            schedule,
            cfg: cfg(args.seed),
        });
        let (out, dt) = simulate_run(setup, run_seed(args.seed, j, RUNS));
        timing.repetition(setup.requests, dt, REFERENCE_CALLS);
        check_run(&mut res.checks, setup, &out);
        res.degraded += out.1.failed;
        if j < RUNS {
            outputs.push(out);
        } else {
            res.checks
                .require(same_output(&out, &outputs[j % RUNS]), || {
                    format!("repetition {j} differs from its first run {}", j % RUNS)
                });
        }
        j += 1;
    }
    let setup = built.expect("built on the first repetition");
    timing.report(res, "requests");
    res.note(format!(
        "{j} repetitions of {} requests and {} churn events cycling {RUNS} streams",
        setup.requests,
        setup.schedule.len()
    ));
    quality(res, &outputs);

    // Every assignment of run 0 checked, outside the timing.
    let rec = PathRecorder::default();
    let checked = public_loop(
        &setup,
        setup.net.clone(),
        run_seed(args.seed, 0, RUNS),
        &rec,
        None,
        &mut res.checks,
    );
    res.checks.require(same_output(&checked, &outputs[0]), || {
        "public-call loop differs from simulate_churn on run 0".to_string()
    });
    res.degraded += checked.1.failed;
    res.attempted = (j as u64 + 1) * setup.requests;
}

fn traced(args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let (mut placement_s, mut network_s, mut churn_s) = (Vec::new(), Vec::new(), Vec::new());
    let ((net, schedule), _) = repeat_setup(SETUP_REPS, || {
        let (net, p, w) = NET.build_split(net_seed);
        let t = Instant::now();
        let schedule = schedule_and_ring(&net, args.seed);
        churn_s.push(t.elapsed().as_secs_f64());
        placement_s.push(p);
        network_s.push(w);
        (net, schedule)
    });
    res.set("setup.placement_s", median(&mut placement_s));
    res.set("setup.network_s", median(&mut network_s));
    res.set("setup.churn_s", median(&mut churn_s));
    res.checks.require(
        same_placement(NET.build(net_seed).placement(), net.placement()),
        || "Placement::generate + from_parts differs from the builder".to_string(),
    );
    let setup = Setup {
        requests: 4 * net.n() as u64,
        net,
        schedule,
        cfg: cfg(args.seed),
    };

    let clock_ns = clock_read_ns();
    let rec = PathRecorder::default();
    let mut layers = ChurnLayers {
        requests: Layers::new(),
        ..ChurnLayers::default()
    };
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut nearest_calls, mut migrations, mut applied) = (0, 0, 0);
    let mut run0: Option<RunOutput> = None;
    // A discarded warm-up pair: the first run of each kind pays page
    // faults and cold caches.
    let rs = run_seed(args.seed, 0, RUNS);
    simulate_run(&setup, rs);
    let (warm_rec, mut warm) = (PathRecorder::default(), ChurnLayers::default());
    let net = setup.net.clone();
    public_loop(
        &setup,
        net,
        rs,
        &warm_rec,
        Some((&mut warm, 0)),
        &mut res.checks,
    );
    let start = Instant::now();
    let mut j = 0;
    while j < 2 || start.elapsed() < args.seconds {
        let rs = run_seed(args.seed, j, RUNS);
        let untraced_first = j % 2 == 0;
        let mut untraced = untraced_first.then(|| simulate_run(&setup, rs));
        let net = setup.net.clone();
        let t = Instant::now();
        let out = public_loop(
            &setup,
            net,
            rs,
            &rec,
            Some((&mut layers, j as u64)),
            &mut res.checks,
        );
        traced_s += t.elapsed().as_secs_f64();
        let (expected, dt) = untraced.get_or_insert_with(|| simulate_run(&setup, rs));
        untraced_s += *dt;
        res.checks.require(same_output(&out, expected), || {
            format!("traced repetition {j} differs from simulate_churn")
        });
        check_run(&mut res.checks, &setup, &out);
        res.degraded += 2 * out.1.failed;
        nearest_calls += out.0.no_candidate_in_ball;
        migrations += out.1.migrations;
        applied += out.1.events_applied;
        if j == 0 {
            run0 = untraced.map(|(o, _)| o);
        }
        j += 1;
    }
    let requests = j as u64 * setup.requests;
    let per_request =
        |s: &Samples| (s.total() as f64 - clock_ns * s.len() as f64).max(0.0) / requests as f64;
    let reqs = &mut layers.requests;
    res.strategy_layers(reqs, &rec, requests, nearest_calls, clock_ns);
    let mut layer_sum = reqs.source.mean_net(clock_ns)
        + reqs.assign.mean_net(clock_ns)
        + reqs.record.mean_net(clock_ns)
        + layers.is_alive.mean_net(clock_ns)
        + per_request(&layers.ring)
        + per_request(&layers.failover);
    for (kind, name) in EVENT_METRICS.iter().enumerate() {
        res.set(name, layers.events[kind].mean_net(clock_ns));
        layer_sum += per_request(&layers.events[kind]);
    }
    res.set("churn.is_alive.ns", layers.is_alive.mean_net(clock_ns));
    res.set(
        "churn.migrations_per_event",
        migrations as f64 / applied.max(1) as f64,
    );
    res.trace_cost(
        traced_s * 1e9 / requests as f64,
        untraced_s * 1e9 / requests as f64,
        layer_sum,
        true,
    );
    res.note(format!(
        "{j} traced and {j} untraced repetitions of {} requests; every churn event and 1 in \
         {SAMPLE_EVERY} requests timed; {} failovers",
        setup.requests,
        layers.failover.len()
    ));

    let check_rec = PathRecorder::default();
    let checked = public_loop(
        &setup,
        setup.net.clone(),
        run_seed(args.seed, 0, RUNS),
        &check_rec,
        None,
        &mut res.checks,
    );
    res.checks.require(
        run0.as_ref().is_some_and(|r| same_output(&checked, r)),
        || "checked run differs from simulate_churn on run 0".to_string(),
    );
    res.degraded += checked.1.failed;
    res.spans = layers.requests.spans.take();
    res.attempted = (2 * j as u64 + 1) * setup.requests;
}

const EVENT_METRICS: [&str; 4] = [
    "churn.crash.ns",
    "churn.leave.ns",
    "churn.join.ns",
    "churn.insert.ns",
];

fn event_index(kind: ChurnEventKind) -> (usize, &'static str) {
    match kind {
        ChurnEventKind::Crash { .. } => (0, "churn.crash"),
        ChurnEventKind::Leave { .. } => (1, "churn.leave"),
        ChurnEventKind::Join { .. } => (2, "churn.join"),
        ChurnEventKind::Insert { .. } => (3, "churn.insert"),
    }
}

#[derive(Default)]
struct ChurnLayers {
    requests: Layers,
    is_alive: Samples,
    failover: Samples,
    /// `ChurnEngine::new`, which builds the membership ring.
    ring: Samples,
    events: [Samples; 4],
}

/// One `simulate_churn` run on a copy of the network (made outside the
/// timing); returns its outputs and wall seconds.
fn simulate_run(setup: &Setup, run_seed: u64) -> (RunOutput, f64) {
    let mut net = setup.net.clone();
    let mut strategy = ProximityChoice::two_choice(Some(RADIUS));
    let mut source = IidUniform::new();
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t = Instant::now();
    let (sim, churn) = simulate_churn(
        &mut net,
        &mut strategy,
        &mut source,
        setup.requests,
        &setup.schedule,
        setup.cfg,
        &mut rng,
        &NullRecorder,
    );
    let dt = t.elapsed().as_secs_f64();
    (std::hint::black_box((sim, churn, net)), dt)
}

/// The loop of `simulate_churn` on `net` (a copy of the set-up network),
/// written with the public calls. With
/// `trace`, every event and 1 request in [`SAMPLE_EVERY`] are timed and
/// the timed requests checked; without it every assignment is checked.
fn public_loop(
    setup: &Setup,
    mut net: CacheNetwork<Torus>,
    run_seed: u64,
    rec: &PathRecorder,
    mut trace: Option<(&mut ChurnLayers, u64)>,
    checks: &mut Checks,
) -> RunOutput {
    let mut strategy = ProximityChoice::two_choice(Some(RADIUS)).with_recorder(rec);
    let mut source = IidUniform::new();
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t = Instant::now();
    let mut engine = ChurnEngine::new(&net, setup.cfg);
    if let Some((layers, _)) = trace.as_mut() {
        layers.ring.push(ns(t, Instant::now()));
    }
    let mut report = SimReport::new(net.n());
    let events = setup.schedule.events();
    let mut next = 0;
    for i in 0..setup.requests {
        while next < events.len() && events[next].at <= i {
            let kind = events[next].kind;
            let t0 = Instant::now();
            engine.apply(&mut net, kind, &mut rng, rec);
            if let Some((layers, rep)) = trace.as_mut() {
                let t1 = Instant::now();
                let (k, name) = event_index(kind);
                layers.events[k].push(ns(t0, t1));
                layers
                    .requests
                    .span((*rep << 32) | i, name, None, t0, t1, None);
            }
            next += 1;
        }
        let timed = trace.is_some() && i % SAMPLE_EVERY == 0;
        let stamp = || timed.then(Instant::now);
        rec.take_path();
        let t0 = stamp();
        let req = source.next_request(&net, &mut rng);
        let t1 = stamp();
        let a = strategy.assign(&net, &report.loads, req, &mut rng);
        let t2 = stamp();
        let alive = engine.is_alive(a.server);
        let t3 = stamp();
        let (served, failover_span) = if alive {
            (Some((a.server, a.hops)), None)
        } else {
            let f0 = Instant::now();
            let served = engine.failover(&net, req, a.server, &mut rng, rec);
            (served, Some((f0, Instant::now())))
        };
        // A request served degraded at its origin is counted by the
        // churn report; every other one must satisfy the output checks,
        // with a failover counting as a fallback.
        if let (true, Some((server, hops))) = (timed || trace.is_none(), served) {
            let fallback = a.fallback.is_some() || !alive;
            let served = Assignment { server, hops, ..a };
            check_assignment(checks, &net, RADIUS, req, served, fallback);
            checks.require(engine.is_alive(server), || {
                format!("request {req:?} served by dead node {server}")
            });
        }
        let t4 = stamp();
        match served {
            Some((server, hops)) => report.record(server, hops, a.fallback),
            None => report.record(req.origin, 0, None),
        }
        let t5 = stamp();
        if let Some((layers, rep)) = trace.as_mut() {
            let id = (*rep << 32) | i;
            if let Some((f0, f1)) = failover_span {
                layers.failover.push(ns(f0, f1));
                layers
                    .requests
                    .span(id, "churn.failover", Some("request"), f0, f1, None);
            }
            if let (Some(t0), Some(t1), Some(t2), Some(t3), Some(t4), Some(t5)) =
                (t0, t1, t2, t3, t4, t5)
            {
                let nearest = a.fallback == Some(FallbackKind::NoCandidateInBall);
                let r = &mut layers.requests;
                r.span(id, "request", None, t0, t5, None);
                r.source(id, t0, t1);
                r.assign(id, t1, t2, rec.take_path(), nearest);
                r.record(id, t4, t5);
                layers.is_alive.push(ns(t2, t3));
                r.span(id, "is_alive", Some("request"), t2, t3, None);
            }
        }
    }
    let total: u64 = report.loads.iter().map(|&l| l as u64).sum();
    checks.require(total == setup.requests, || {
        format!("loads sum to {total}, expected {}", setup.requests)
    });
    (report, engine.into_report(), net)
}

fn same_output(a: &RunOutput, b: &RunOutput) -> bool {
    a.0 == b.0 && a.1 == b.1 && same_placement(a.2.placement(), b.2.placement())
}

/// Per-run conservation: Σloads = requests and every schedule event
/// either applied or skipped.
fn check_run(checks: &mut Checks, setup: &Setup, (sim, churn, _): &RunOutput) {
    let total: u64 = sim.loads.iter().map(|&l| l as u64).sum();
    checks.require(
        total == setup.requests && sim.total_requests == total,
        || format!("loads sum to {total}, expected {}", setup.requests),
    );
    let events = churn.events_applied + churn.events_skipped;
    checks.require(events == setup.schedule.len() as u64, || {
        format!(
            "{events} events applied or skipped, schedule has {}",
            setup.schedule.len()
        )
    });
}

fn quality(res: &mut Results, outputs: &[RunOutput]) {
    let runs = outputs.len() as f64;
    let hops: u64 = outputs.iter().map(|o| o.0.total_hops).sum();
    let requests: u64 = outputs.iter().map(|o| o.0.total_requests).sum();
    res.set(
        "max_load_mean",
        outputs.iter().map(|o| o.0.max_load() as f64).sum::<f64>() / runs,
    );
    res.set("comm_cost_hops", hops as f64 / requests as f64);
    let c = outputs.iter().fold(ChurnReport::default(), |mut acc, o| {
        acc.merge(&o.1);
        acc
    });
    res.note(format!(
        "quality over {} runs: {} events applied, {} skipped, {} migrations, {} failed requests",
        outputs.len(),
        c.events_applied,
        c.events_skipped,
        c.migrations,
        c.failed
    ));
}
