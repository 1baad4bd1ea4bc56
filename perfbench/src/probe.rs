//! Measurement plumbing shared by every workload: the benchmark's own
//! `Recorder`, the in-memory span log, per-layer sample sets, output
//! checks, and small statistics helpers.

use paba_core::{Assignment, CacheNetwork, Request};
use paba_telemetry::{Counter, Recorder, SamplerPath};
use paba_topology::Topology;
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// At most this many spans are kept for the trace file; per-layer
/// statistics are computed from every sample regardless.
const SPAN_CAP: usize = 200_000;

/// Single-threaded recorder passed to the strategy through
/// `with_recorder`: remembers the sampler path of the latest request and
/// tallies paths and counters over the whole traced phase.
#[derive(Default)]
pub struct PathRecorder {
    last: Cell<Option<SamplerPath>>,
    paths: [Cell<u64>; SamplerPath::COUNT],
    counters: [Cell<u64>; Counter::COUNT],
}

impl PathRecorder {
    /// The path recorded since the last call, clearing it.
    pub fn take_path(&self) -> Option<SamplerPath> {
        self.last.take()
    }

    pub fn path_count(&self, path: SamplerPath) -> u64 {
        self.paths[path as usize].get()
    }

    pub fn total_paths(&self) -> u64 {
        self.paths.iter().map(Cell::get).sum()
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].get()
    }
}

impl Recorder for PathRecorder {
    const ENABLED: bool = true;

    fn path(&self, path: SamplerPath) {
        self.last.set(Some(path));
        let cell = &self.paths[path as usize];
        cell.set(cell.get() + 1);
    }

    fn count(&self, counter: Counter, delta: u64) {
        let cell = &self.counters[counter as usize];
        cell.set(cell.get() + delta);
    }

    fn pool_size(&self, _size: usize) {}

    fn span_ns(&self, _stage: paba_telemetry::Stage, _nanos: u64) {}
}

/// Nanoseconds between two instants.
pub fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Cost of one `Instant::now()` read: the median over batches of
/// back-to-back reads. A span measured between two reads includes about
/// one read's latency, which layer times subtract.
pub fn clock_read_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_read: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..BATCH {
                last = std::hint::black_box(Instant::now());
            }
            ns(t0, last) as f64 / BATCH as f64
        })
        .collect();
    median(&mut per_read)
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Raw span durations of one layer, in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Mean duration net of one clock read; 0 for an unexercised layer.
    pub fn mean_net(&self, clock_ns: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        (self.total() as f64 / self.0.len() as f64 - clock_ns).max(0.0)
    }

    /// Nearest-rank quantile net of one clock read; 0 when empty.
    pub fn quantile_net(&mut self, q: f64, clock_ns: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        (self.0[rank - 1] as f64 - clock_ns).max(0.0)
    }
}

/// One timed interval. Spans of one request share `req`; `parent` names
/// the enclosing span (`None` for a request's root span).
struct Span {
    req: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    dur_ns: u64,
    path: Option<SamplerPath>,
}

/// Spans kept in memory for the whole traced phase and written out once
/// at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
        path: Option<SamplerPath>,
    ) {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: ns(self.origin, start),
            dur_ns: ns(start, end),
            path,
        });
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write the spans as JSON lines after one header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
                s.req, s.name, s.start_ns, s.dur_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(line, ",\"parent\":\"{p}\"");
            }
            if let Some(p) = s.path {
                let _ = write!(line, ",\"path\":\"{}\"", p.label());
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Output-check tally: the number of violations and the first few
/// messages.
#[derive(Default)]
pub struct Checks {
    violations: u64,
    messages: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations += 1;
            if self.messages.len() < 10 {
                self.messages.push(msg());
            }
        }
    }

    /// Fold in the tally of a check run elsewhere.
    pub fn absorb(&mut self, other: Checks) {
        self.violations += other.violations;
        let room = 10usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    pub fn violations(&self) -> u64 {
        self.violations
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Output checks on one assignment, made before the load is recorded:
/// the server caches the file now, `hops` is the origin-server distance,
/// and `hops <= radius` unless the assignment carries a fallback flag.
pub fn check_assignment<T: Topology>(
    checks: &mut Checks,
    net: &CacheNetwork<T>,
    radius: u32,
    req: Request,
    a: Assignment,
    fallback: bool,
) {
    checks.require(net.placement().caches(a.server, req.file), || {
        format!(
            "request {req:?} assigned to node {}, which does not cache file {}",
            a.server, req.file
        )
    });
    let dist = net.topo().dist(req.origin, a.server);
    checks.require(a.hops == dist, || {
        format!("request {req:?}: hops {} but distance {dist}", a.hops)
    });
    checks.require(a.hops <= radius || fallback, || {
        format!(
            "request {req:?}: {} hops exceed radius {radius} without a fallback flag",
            a.hops
        )
    });
}

/// Speed of the reference kernel, in balls per second, on the host the
/// bounds in `BENCHMARK.json` were set on (`reference_host.json`).
pub const REFERENCE_BALLS_PER_S: f64 = 2.5e8;
/// Balls per reference-kernel call (under a millisecond).
const REFERENCE_BALLS: u32 = 200_000;

/// The end-to-end timings of one run: the rate of every timed
/// repetition, every set-up time, and the reference kernel timed after
/// every repetition.
///
/// The reference kernel is fixed, benchmark-owned work: two-choice balls
/// into 2^16 bins (an L2-resident array) with a xorshift generator. On a
/// shared host the machine's speed drifts by a quarter over seconds and
/// minutes, and the kernel's speed drifts with it, so the reported
/// figures are scaled by reference speed on the bound-setting host over
/// the kernel's median speed in this run. Raw figures are printed beside
/// them.
pub struct Timing {
    rates: Vec<f64>,
    setup: Vec<f64>,
    reference: Vec<f64>,
    bins: Vec<u32>,
}

impl Timing {
    pub fn new() -> Self {
        Self {
            rates: Vec::new(),
            setup: Vec::new(),
            reference: Vec::new(),
            bins: vec![0; 1 << 16],
        }
    }

    pub fn setup(&mut self, seconds: f64) {
        self.setup.push(seconds);
    }

    /// Record one repetition, then time the reference kernel `calls`
    /// times.
    pub fn repetition(&mut self, requests: u64, seconds: f64, calls: usize) {
        self.rates.push(requests as f64 / seconds);
        for _ in 0..calls {
            let t = Instant::now();
            std::hint::black_box(reference_kernel(&mut self.bins));
            self.reference
                .push(REFERENCE_BALLS as f64 / t.elapsed().as_secs_f64());
        }
    }

    /// Set `requests_per_s` and `setup_s`, scaled to the reference speed,
    /// and note the raw figures; `what` names the requests.
    pub fn report(&self, res: &mut crate::Results, what: &str) {
        let reference = median(&mut self.reference.clone());
        let scale = REFERENCE_BALLS_PER_S / reference;
        let rate = median(&mut self.rates.clone());
        let setup = median(&mut self.setup.clone());
        res.set("requests_per_s", rate * scale);
        res.set("setup_s", setup / scale);
        res.note(format!(
            "raw: median {rate:.0} {what} per second over {} repetitions, set-up median \
             {setup:.6} s over {}",
            self.rates.len(),
            self.setup.len()
        ));
        res.note(format!(
            "reference kernel: median {reference:.4e} balls/s over {} calls; figures scaled \
             by {scale:.4} to {REFERENCE_BALLS_PER_S:.1e} balls/s",
            self.reference.len()
        ));
    }
}

/// The reference kernel: [`REFERENCE_BALLS`] balls, each into the less
/// loaded of two pseudo-random bins, from the same empty start every call.
fn reference_kernel(bins: &mut [u32]) -> u32 {
    bins.fill(0);
    let mask = bins.len() as u64 - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut max = 0;
    for _ in 0..REFERENCE_BALLS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (a, b) = ((x & mask) as usize, ((x >> 32) & mask) as usize);
        let i = if bins[a] <= bins[b] { a } else { b };
        bins[i] += 1;
        max = max.max(bins[i]);
    }
    max
}

/// Request-stream seed of repetition `j`: repetitions cycle through `runs`
/// distinct streams, so every timed repetition after the first cycle
/// repeats known work.
pub fn run_seed(seed: u64, j: usize, runs: usize) -> u64 {
    mix(seed, 1 + (j % runs) as u64)
}

/// SplitMix64 finalizer over `seed ^ stream`, for independent streams
/// derived from one benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Span samples of the calls every workload makes per request, plus the
/// span log they feed.
#[derive(Default)]
pub struct Layers {
    pub source: Samples,
    pub assign: Samples,
    pub record: Samples,
    /// `assign` samples split by the sampler path the recorder saw.
    pub by_path: [Samples; SamplerPath::COUNT],
    /// `assign` samples of calls that fell back to the nearest replica.
    pub nearest: Samples,
    pub spans: Option<SpanLog>,
}

impl Layers {
    pub fn new() -> Self {
        Self {
            spans: Some(SpanLog::new()),
            ..Self::default()
        }
    }

    pub fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
        path: Option<SamplerPath>,
    ) {
        if let Some(log) = self.spans.as_mut() {
            log.push(req, name, parent, start, end, path);
        }
    }

    pub fn source(&mut self, req: u64, t0: Instant, t1: Instant) {
        self.source.push(ns(t0, t1));
        self.span(req, "source", Some("request"), t0, t1, None);
    }

    pub fn assign(
        &mut self,
        req: u64,
        t0: Instant,
        t1: Instant,
        path: Option<SamplerPath>,
        nearest: bool,
    ) {
        let d = ns(t0, t1);
        self.assign.push(d);
        if let Some(p) = path {
            self.by_path[p as usize].push(d);
        }
        if nearest {
            self.nearest.push(d);
        }
        self.span(req, "assign", Some("request"), t0, t1, path);
    }

    pub fn record(&mut self, req: u64, t0: Instant, t1: Instant) {
        self.record.push(ns(t0, t1));
        self.span(req, "record", Some("request"), t0, t1, None);
    }
}
