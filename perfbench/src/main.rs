//! The repository's benchmark: four workloads over the public API of the
//! simulator crates, reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a separately traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-dir <dir>] [--provenance <json>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output,
//! equivalence or closure check prints `correct: false` and exits 1.

mod churn;
mod net;
mod probe;
mod queue;
mod static_loop;

use paba_telemetry::{alloc, Counter, CountingAlloc, SamplerPath};
use probe::{Checks, Layers, PathRecorder, SpanLog};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--trace-dir <dir>] [--provenance <json>]";

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "static-sparse-uniform-r5",
    "static-sparse-zipf1.2-r10",
    "queue-full-r5",
    "churn-sparse-r5",
];

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("max_load_mean", "requests"),
    ("comm_cost_hops", "hops"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not exercise
/// reads 0 there.
const PER_LAYER: [(&str, &str); 39] = [
    ("source.ns", "ns"),
    ("strategy.assign_ns.p50", "ns"),
    ("strategy.assign_ns.p99", "ns"),
    ("strategy.windowed.ns", "ns"),
    ("strategy.rejection_ball.ns", "ns"),
    ("strategy.rejection_replica.ns", "ns"),
    ("strategy.ball_sample.ns", "ns"),
    ("strategy.index_sample.ns", "ns"),
    ("strategy.uncached.ns", "ns"),
    ("strategy.path_share.windowed", "fraction"),
    ("strategy.path_share.rejection_ball", "fraction"),
    ("strategy.path_share.rejection_replica", "fraction"),
    ("strategy.path_share.ball_sample", "fraction"),
    ("strategy.path_share.index_sample", "fraction"),
    ("strategy.path_share.uncached", "fraction"),
    ("strategy.budget_exhausted_per_request", "count"),
    ("nearest.ns", "ns"),
    ("nearest.share", "fraction"),
    ("nearest.band_expansions_per_call", "count"),
    ("placement.caches_per_request", "count"),
    ("record.ns", "ns"),
    ("setup.placement_s", "s"),
    ("setup.network_s", "s"),
    ("setup.churn_s", "s"),
    ("engine.ns_per_arrival", "ns"),
    ("queue.sojourn_mean", "svc_time"),
    ("queue.sojourn_p99", "svc_time"),
    ("churn.crash.ns", "ns"),
    ("churn.leave.ns", "ns"),
    ("churn.join.ns", "ns"),
    ("churn.insert.ns", "ns"),
    ("churn.is_alive.ns", "ns"),
    ("churn.migrations_per_event", "count"),
    ("trace.overhead", "ratio"),
    ("trace.closure", "ratio"),
    ("trace.sampled_requests", "count"),
    ("trace.clock_read_ns", "ns"),
    ("trace.untraced_ns_per_request", "ns"),
    ("trace.traced_ns_per_request", "ns"),
];

/// Sampler paths with a per-path metric, and their metric-name stems.
const PATHS: [(SamplerPath, &str, &str); 6] = [
    (
        SamplerPath::Windowed,
        "strategy.windowed.ns",
        "strategy.path_share.windowed",
    ),
    (
        SamplerPath::RejectionBall,
        "strategy.rejection_ball.ns",
        "strategy.path_share.rejection_ball",
    ),
    (
        SamplerPath::RejectionReplica,
        "strategy.rejection_replica.ns",
        "strategy.path_share.rejection_replica",
    ),
    (
        SamplerPath::BallSample,
        "strategy.ball_sample.ns",
        "strategy.path_share.ball_sample",
    ),
    (
        SamplerPath::IndexSample,
        "strategy.index_sample.ns",
        "strategy.path_share.index_sample",
    ),
    (
        SamplerPath::Uncached,
        "strategy.uncached.ns",
        "strategy.path_share.uncached",
    ),
];

/// Closure tolerance: sampled layer times must sum to the traced
/// ns/request within this relative error.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    trace_dir: PathBuf,
    provenance: String,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut trace_dir = PathBuf::from(".bench_build/perfbench-trace");
        let mut provenance = String::from("{}");
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!(
                            "unknown workload '{value}' (expected one of {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {value}: need 0 < s <= 3600"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    })
                }
                "--trace-dir" => trace_dir = PathBuf::from(value),
                "--provenance" => provenance = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trace_dir,
            provenance,
        })
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Results {
    /// Requests (arrivals) attempted across every phase of the run.
    pub attempted: u64,
    /// Requests served degraded.
    pub degraded: u64,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
    pub spans: Option<SpanLog>,
}

impl Results {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The sampler-path, nearest-replica, placement and record metrics of
    /// a traced phase over `requests` requests, `nearest_calls` of which
    /// fell back to the nearest replica.
    pub fn strategy_layers(
        &mut self,
        layers: &mut Layers,
        rec: &PathRecorder,
        requests: u64,
        nearest_calls: u64,
        clock_ns: f64,
    ) {
        let per = |count: u64, of: u64| {
            if of == 0 {
                0.0
            } else {
                count as f64 / of as f64
            }
        };
        self.set("source.ns", layers.source.mean_net(clock_ns));
        self.set(
            "strategy.assign_ns.p50",
            layers.assign.quantile_net(0.5, clock_ns),
        );
        self.set(
            "strategy.assign_ns.p99",
            layers.assign.quantile_net(0.99, clock_ns),
        );
        for (path, ns_key, share_key) in PATHS {
            self.set(ns_key, layers.by_path[path as usize].mean_net(clock_ns));
            self.set(share_key, per(rec.path_count(path), rec.total_paths()));
        }
        self.set(
            "strategy.budget_exhausted_per_request",
            per(rec.counter(Counter::RejectionBudgetExhausted), requests),
        );
        self.set("nearest.ns", layers.nearest.mean_net(clock_ns));
        self.set("nearest.share", per(nearest_calls, requests));
        self.set(
            "nearest.band_expansions_per_call",
            per(rec.counter(Counter::RowBandExpansion), nearest_calls),
        );
        self.set(
            "placement.caches_per_request",
            per(
                rec.counter(Counter::CachesBitmap) + rec.counter(Counter::CachesBinarySearch),
                requests,
            ),
        );
        self.set("record.ns", layers.record.mean_net(clock_ns));
        self.set("trace.sampled_requests", layers.assign.len() as f64);
        self.set("trace.clock_read_ns", clock_ns);
    }

    /// Overhead and closure of a traced phase: `traced_ns` and
    /// `untraced_ns` are wall ns/request with and without tracing, and
    /// `layer_sum_ns` the per-request sum of the sampled layer times.
    /// With `check_closure` a closure outside the tolerance fails the run.
    pub fn trace_cost(
        &mut self,
        traced_ns: f64,
        untraced_ns: f64,
        layer_sum_ns: f64,
        check_closure: bool,
    ) {
        let closure = layer_sum_ns / traced_ns;
        self.set("trace.overhead", traced_ns / untraced_ns - 1.0);
        self.set("trace.closure", closure);
        self.set("trace.untraced_ns_per_request", untraced_ns);
        self.set("trace.traced_ns_per_request", traced_ns);
        if check_closure {
            self.checks
                .require((closure - 1.0).abs() <= CLOSURE_TOLERANCE, || {
                    format!(
                        "closure: layers sum to {layer_sum_ns:.1} ns/request, traced loop takes \
                     {traced_ns:.1} (ratio {closure:.3}, tolerance ±{CLOSURE_TOLERANCE})"
                    )
                });
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut res = match args.workload.as_str() {
        "static-sparse-uniform-r5" => static_loop::run(&static_loop::UNIFORM_R5, &args),
        "static-sparse-zipf1.2-r10" => static_loop::run(&static_loop::ZIPF_R10, &args),
        "queue-full-r5" => queue::run(&args),
        "churn-sparse-r5" => churn::run(&args),
        _ => unreachable!("workload names are validated by Args::parse"),
    };
    if !args.trace {
        let peak = alloc::peak_bytes().expect("the counting allocator is installed");
        res.set("peak_heap_mb", peak as f64 / 1e6);
    }
    emit(&args, res)
}

/// Print the notes, every metric of the selected list by name and unit,
/// and the result line; write the span log of a traced run.
fn emit(args: &Args, mut res: Results) -> ExitCode {
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for note in &res.notes {
        println!("  {note}");
    }
    if let Some(spans) = res.spans.take() {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{},\"dropped\":{},\"provenance\":{}}}",
            args.workload,
            args.seed,
            spans.kept(),
            spans.dropped(),
            args.provenance
        );
        match spans.write_jsonl(&path, &header) {
            Ok(()) => println!(
                "  spans: {} kept ({} beyond the cap dropped) -> {}",
                spans.kept(),
                spans.dropped(),
                path.display()
            ),
            Err(e) => res
                .checks
                .require(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for name in res.metrics.keys() {
        res.checks.require(list.iter().any(|(n, _)| n == name), || {
            format!("internal: metric {name} is not in the reported list")
        });
    }
    let mut json = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match res.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                res.checks
                    .require(false, || format!("internal: {name} was not measured"));
                0.0
            }
        };
        res.checks.require(value.is_finite(), || {
            format!("{name} is not finite: {value}")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  metric {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for msg in res.checks.messages() {
        eprintln!("check failed: {msg}");
    }
    let correct = res.checks.violations() == 0;
    let failed = res.degraded + res.checks.violations();
    println!(
        "  failed_fraction = {} ({failed} of {} requests degraded or failing checks)",
        failed as f64 / res.attempted.max(1) as f64,
        res.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
