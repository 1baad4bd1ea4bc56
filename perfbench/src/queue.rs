//! The queueing workload: `simulate_queueing_source` on a 100 × 100
//! torus with full placement, Poisson arrivals at λ = 0.7 per server,
//! Exp(1) service, and two choices within radius 5.
//!
//! Arrivals are open-loop in simulated time; the engine runs them one
//! after another on one thread. The traced run wraps the strategy and
//! the request source in timing types, so the engine's own time per
//! arrival is the wall time minus the source and assign time.

use crate::net::{repeat_setup, same_placement, NetSpec};
use crate::probe::{
    check_assignment, clock_read_ns, median, mix, run_seed, Checks, Layers, PathRecorder, Timing,
};
use crate::{Args, Results};
use paba_core::{
    Assignment, CacheNetwork, FallbackKind, IidUniform, PlacementPolicy, ProximityChoice, Request,
    RequestSource, Strategy,
};
use paba_popularity::Popularity;
use paba_supermarket::{simulate_queueing_source, QueueReport, QueueSimConfig};
use paba_topology::{Topology, Torus};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::time::Instant;

const NET: NetSpec = NetSpec {
    side: 100,
    k: 1_000,
    popularity: Popularity::Uniform,
    m: 1_000,
    policy: PlacementPolicy::FullLibrary,
};
const RADIUS: u32 = 5;
const CFG: QueueSimConfig = QueueSimConfig {
    lambda: 0.7,
    horizon: 30.0,
    warmup: 10.0,
    tail_cap: 32,
    stride: 0,
};
/// Distinct arrival streams; timed repetitions cycle through them.
const RUNS: usize = 8;
/// Set-up repetitions of the traced run (microseconds each here).
const SETUP_REPS: usize = 1001;
/// Reference-kernel calls after each repetition (about a second each).
const REFERENCE_CALLS: usize = 8;
/// The traced run times 1 arrival in this many.
const SAMPLE_EVERY: u64 = 16;

pub fn run(args: &Args) -> Results {
    let mut res = Results::default();
    if args.trace {
        traced(args, &mut res);
    } else {
        untraced(args, &mut res);
    }
    res
}

fn untraced(args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let mut timing = Timing::new();
    let mut built = None;
    let mut reports: Vec<QueueReport> = Vec::with_capacity(RUNS);
    let mut arrivals = 0;
    let start = Instant::now();
    let mut j = 0;
    while j < RUNS || start.elapsed() < args.seconds {
        // The network is rebuilt before every repetition, so the set-up
        // samples spread over the measured phase.
        drop(built.take());
        let t = Instant::now();
        let net = built.insert(NET.build(net_seed));
        timing.setup(t.elapsed().as_secs_f64());
        let (report, n, dt) = simulate_run(net, run_seed(args.seed, j, RUNS));
        if j < RUNS {
            reports.push(report);
        } else {
            res.checks.require(report == reports[j % RUNS], || {
                format!("repetition {j} differs from its first run {}", j % RUNS)
            });
        }
        timing.repetition(n, dt, REFERENCE_CALLS);
        arrivals += n;
        j += 1;
    }
    let net = built.expect("built on the first repetition");
    timing.report(res, "arrivals");
    res.note(format!(
        "{j} repetitions of ~{} arrivals cycling {RUNS} streams",
        arrivals / j as u64
    ));
    quality(res, &reports);

    // Every assignment of run 0 checked, outside the timing.
    let rec = PathRecorder::default();
    let probe = Probe::new(&rec, 0, 0, true);
    let (checked, _) = probed_run(&net, run_seed(args.seed, 0, RUNS), &probe);
    res.checks.require(checked == reports[0], || {
        "checked run differs from the untraced run 0".to_string()
    });
    res.checks.absorb(probe.checks.into_inner());
    res.attempted = arrivals + probe.arrivals.get();
}

fn traced(args: &Args, res: &mut Results) {
    let net_seed = mix(args.seed, 0);
    let (mut placement_s, mut network_s) = (Vec::new(), Vec::new());
    let (net, _) = repeat_setup(SETUP_REPS, || {
        let (net, p, w) = NET.build_split(net_seed);
        placement_s.push(p);
        network_s.push(w);
        net
    });
    res.set("setup.placement_s", median(&mut placement_s));
    res.set("setup.network_s", median(&mut network_s));
    res.checks.require(
        same_placement(NET.build(net_seed).placement(), net.placement()),
        || "Placement::generate + from_parts differs from the builder".to_string(),
    );

    let clock_ns = clock_read_ns();
    let rec = PathRecorder::default();
    let mut layers = Layers::new();
    let (mut traced_s, mut untraced_s, mut traced_arrivals) = (0.0, 0.0, 0u64);
    let mut nearest_calls = 0;
    let mut reports: Vec<QueueReport> = Vec::new();
    // A discarded warm-up pair: the first run of each kind pays page
    // faults and cold caches.
    let rs = run_seed(args.seed, 0, RUNS);
    simulate_run(&net, rs);
    probed_run(
        &net,
        rs,
        &Probe::new(&PathRecorder::default(), SAMPLE_EVERY, 0, false),
    );
    let start = Instant::now();
    let mut j = 0;
    while j < 2 || start.elapsed() < args.seconds {
        let rs = run_seed(args.seed, j, RUNS);
        let untraced_first = j % 2 == 0;
        let mut untraced = untraced_first.then(|| simulate_run(&net, rs));
        let probe = Probe::new(&rec, SAMPLE_EVERY, j as u64, false);
        probe.layers.replace(std::mem::take(&mut layers));
        let (report, dt) = probed_run(&net, rs, &probe);
        traced_s += dt;
        let (expected, n, udt) = untraced.get_or_insert_with(|| simulate_run(&net, rs));
        untraced_s += *udt;
        res.checks.require(report == *expected, || {
            format!("traced repetition {j} differs from the untraced run")
        });
        res.checks.require(probe.arrivals.get() == *n, || {
            format!("traced repetition {j} saw a different arrival count")
        });
        traced_arrivals += *n;
        nearest_calls += probe.nearest.get();
        layers = probe.layers.into_inner();
        res.checks.absorb(probe.checks.into_inner());
        if j < RUNS {
            reports.push(report);
        }
        j += 1;
    }
    res.strategy_layers(&mut layers, &rec, traced_arrivals, nearest_calls, clock_ns);
    let traced_ns = traced_s * 1e9 / traced_arrivals as f64;
    let engine_ns = traced_ns - layers.source.mean_net(clock_ns) - layers.assign.mean_net(clock_ns);
    res.set("engine.ns_per_arrival", engine_ns);
    // The engine is timed as the remainder, so the layers close by
    // construction here; the closure check applies to the static and
    // churn loops.
    res.trace_cost(
        traced_ns,
        untraced_s * 1e9 / traced_arrivals as f64,
        traced_ns,
        false,
    );
    let runs = reports.len() as f64;
    res.set(
        "queue.sojourn_mean",
        reports.iter().map(|r| r.mean_response).sum::<f64>() / runs,
    );
    res.set(
        "queue.sojourn_p99",
        reports.iter().map(|r| r.sojourn_p99).sum::<f64>() / runs,
    );
    for r in &reports {
        check_report(&mut res.checks, r);
    }
    res.note(format!(
        "{j} traced and {j} untraced repetitions ({traced_arrivals} arrivals each way); \
         1 in {SAMPLE_EVERY} timed"
    ));
    res.spans = layers.spans.take();
    res.attempted = 2 * traced_arrivals;
}

/// One `simulate_queueing_source` run with a counting source; returns
/// the report, the arrival count and the wall seconds.
fn simulate_run(net: &CacheNetwork<Torus>, run_seed: u64) -> (QueueReport, u64, f64) {
    let mut strategy = ProximityChoice::two_choice(Some(RADIUS));
    let mut source = Counted {
        inner: IidUniform::new(),
        count: 0,
    };
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t = Instant::now();
    let report = simulate_queueing_source(net, &mut strategy, &mut source, &CFG, &mut rng);
    let dt = t.elapsed().as_secs_f64();
    (std::hint::black_box(report), source.count, dt)
}

/// The same run with the strategy and source wrapped by `probe`.
fn probed_run(net: &CacheNetwork<Torus>, run_seed: u64, probe: &Probe) -> (QueueReport, f64) {
    let mut strategy = Probed {
        inner: ProximityChoice::two_choice(Some(RADIUS)).with_recorder(probe.rec),
        probe,
    };
    let mut source = Probed {
        inner: IidUniform::new(),
        probe,
    };
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t = Instant::now();
    let report = simulate_queueing_source(net, &mut strategy, &mut source, &CFG, &mut rng);
    let dt = t.elapsed().as_secs_f64();
    (report, dt)
}

fn quality(res: &mut Results, reports: &[QueueReport]) {
    let runs = reports.len() as f64;
    let dispatched: u64 = reports.iter().map(|r| r.dispatched).sum();
    let hops: f64 = reports
        .iter()
        .map(|r| r.comm_cost * r.dispatched as f64)
        .sum();
    res.set(
        "max_load_mean",
        reports.iter().map(|r| r.max_queue as f64).sum::<f64>() / runs,
    );
    res.set("comm_cost_hops", hops / dispatched as f64);
    res.note(format!(
        "quality over {} runs: max_load_mean is the largest queue length; mean sojourn {:.4}, \
         p99 {:.4} (service times)",
        reports.len(),
        reports.iter().map(|r| r.mean_response).sum::<f64>() / runs,
        reports.iter().map(|r| r.sojourn_p99).sum::<f64>() / runs,
    ));
    for r in reports {
        check_report(&mut res.checks, r);
    }
}

fn check_report(checks: &mut Checks, r: &QueueReport) {
    checks.require(r.completed <= r.dispatched, || {
        format!("completed {} > dispatched {}", r.completed, r.dispatched)
    });
    checks.require(r.dispatched > 0 && r.mean_response > 0.0, || {
        "empty measurement window".to_string()
    });
}

/// A request source that counts the arrivals it serves.
struct Counted<W> {
    inner: W,
    count: u64,
}

impl<T: Topology, W: RequestSource<T>> RequestSource<T> for Counted<W> {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        self.count += 1;
        self.inner.next_request(net, rng)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// State shared by the wrapped strategy and source of one run. The
/// engine asks the source for arrival `i` and then assigns it, so the
/// arrival counter pairs each assign call with its request.
struct Probe<'a> {
    rec: &'a PathRecorder,
    /// Time 1 arrival in this many (0: none).
    every: u64,
    rep: u64,
    /// Check every assignment, not only the timed ones.
    check_all: bool,
    arrivals: Cell<u64>,
    request_start: Cell<Option<Instant>>,
    nearest: Cell<u64>,
    layers: RefCell<Layers>,
    checks: RefCell<Checks>,
}

impl<'a> Probe<'a> {
    fn new(rec: &'a PathRecorder, every: u64, rep: u64, check_all: bool) -> Self {
        Self {
            rec,
            every,
            rep,
            check_all,
            arrivals: Cell::new(0),
            request_start: Cell::new(None),
            nearest: Cell::new(0),
            layers: RefCell::new(Layers::default()),
            checks: RefCell::new(Checks::default()),
        }
    }

    fn sampled(&self, arrival: u64) -> bool {
        self.every != 0 && arrival.is_multiple_of(self.every)
    }

    fn id(&self, arrival: u64) -> u64 {
        (self.rep << 32) | arrival
    }
}

/// A strategy or source wrapped by a [`Probe`].
struct Probed<'a, X> {
    inner: X,
    probe: &'a Probe<'a>,
}

impl<T: Topology, W: RequestSource<T>> RequestSource<T> for Probed<'_, W> {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let i = self.probe.arrivals.get();
        self.probe.arrivals.set(i + 1);
        if !self.probe.sampled(i) {
            return self.inner.next_request(net, rng);
        }
        let t0 = Instant::now();
        let req = self.inner.next_request(net, rng);
        let t1 = Instant::now();
        self.probe.request_start.set(Some(t0));
        self.probe
            .layers
            .borrow_mut()
            .source(self.probe.id(i), t0, t1);
        req
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: Topology, S: Strategy<T>> Strategy<T> for Probed<'_, S> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        let probe = self.probe;
        let i = probe.arrivals.get() - 1;
        let sampled = probe.sampled(i);
        let a = if sampled {
            probe.rec.take_path();
            let t1 = Instant::now();
            let a = self.inner.assign(net, loads, req, rng);
            let t2 = Instant::now();
            let nearest = a.fallback == Some(FallbackKind::NoCandidateInBall);
            let mut layers = probe.layers.borrow_mut();
            let id = probe.id(i);
            layers.assign(id, t1, t2, probe.rec.take_path(), nearest);
            if let Some(t0) = probe.request_start.take() {
                layers.span(id, "request", None, t0, t2, None);
            }
            a
        } else {
            self.inner.assign(net, loads, req, rng)
        };
        if a.fallback == Some(FallbackKind::NoCandidateInBall) {
            probe.nearest.set(probe.nearest.get() + 1);
        }
        if sampled || probe.check_all {
            let fallback = a.fallback.is_some();
            check_assignment(
                &mut probe.checks.borrow_mut(),
                net,
                RADIUS,
                req,
                a,
                fallback,
            );
        }
        a
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
