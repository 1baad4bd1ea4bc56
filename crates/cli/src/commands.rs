//! Subcommand implementations.

use crate::args::Args;
use paba_core::{
    simulate_source_profiled, CacheNetwork, PlacementPolicy, RequestSource, SimReport,
    StrategyRule, StrategySpec, UncachedPolicy,
};
use paba_mcrunner::{run_parallel, run_parallel_traced, run_parallel_with_state, LiveRun};
use paba_popularity::Popularity;
use paba_repro::churn_experiments::ChurnParams;
use paba_repro::queueing_experiments::QueueingParams;
use paba_repro::{NetworkParams, Suite};
use paba_telemetry::{
    MetricsServer, NullRecorder, Recorder, Sampling, TelemetrySnapshot, TraceConfig, TraceReport,
};
use paba_topology::Torus;
use paba_util::envcfg::Scale;
use paba_util::{schema, Provenance, Summary, Table};
use paba_workload::{TraceWriter, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Print the global help text.
pub fn print_help() {
    println!("{HELP}");
}

const HELP: &str = "paba — proximity-aware balanced allocations in cache networks
(Pourmiri, Jafari Siavoshani, Shariatpanahi; IPDPS 2017)

USAGE:
  paba simulate [options]             run the static cache-network model,
                                      optionally traced (see TRACE OPTIONS)
  paba queue [options]                run the continuous-time (supermarket) model
  paba ballsbins [options]            run a classic balls-into-bins process
  paba workload generate [options]    generate a request trace file
  paba workload inspect [options]     summarize a request trace file
  paba repro [options]                run the theorem-gated reproduction suite
  paba churn [options]                run the churn-robustness suite: seeded
                                      fault injection, repair, degradation gates
  paba queueing [options]             run the temporal serving-engine suite:
                                      paired queueing arms, sojourn-tail gates
  paba figure NAME|all [options]      regenerate a paper figure/theorem table
                                      (see FIGURE OPTIONS), or every one
  paba report [options]               aggregate BENCH_*.json artifacts into one
                                      provenance-checked markdown report
  paba help                           show this text

Output paths (--telemetry-out, --events-out, --series-out) accept '-'
to mean stdout, e.g. for piping into jq.

SIMULATE OPTIONS (defaults in parentheses):
  --side N          torus side, n = side^2 (45)
  --files K         library size (500)
  --cache M         cache slots per server (10)
  --gamma G         Zipf exponent, 0 = uniform (0)
  --placement P     proportional | distinct | full | dht (proportional)
  --strategy S      nearest | two-choice | d-choice | least-loaded (two-choice)
  --radius R        proximity radius, integer or 'inf' (inf)
  --choices D       number of choices for d-choice (2)
  --stale P         refresh load info only every P requests, for every
                    strategy (1 = fresh)
  --requests Q      requests per run (n; trace length for --workload trace)
  --runs R          Monte-Carlo runs (20)
  --seed S          master seed (20170529)
  --csv             emit CSV instead of a table
  --telemetry       record sampler-path telemetry and print the breakdown
  --telemetry-out PATH  also write the merged snapshot as JSON (implies --telemetry)
  --serve-metrics ADDR  serve live Prometheus metrics (sampler paths,
                    event counters, progress, allocator stats) at
                    http://ADDR/metrics for the duration of the run;
                    ADDR like 127.0.0.1:9464 (port 0 = ephemeral, the
                    bound address is printed to stderr)
  --workload W      iid | hotspot | zipf-origins | flash-crowd | shifting
                    | trace (iid), plus the workload options below
 TRACE OPTIONS (any one traces the run; the summary then adds retained
 and evicted event counts and the mean load evolution across runs):
  --sample N        keep every N-th request's event (16)
  --reservoir C     instead: uniform reservoir of C events per run
  --stride S        load-series sampling stride in requests (64; 0 = off)
  --max-events E    ring-buffer bound per run for --sample mode (4096)
  --events-out PATH JSONL event dump ('-' = stdout, 'none' skips; none)
  --series-out PATH paba-trace-series/1 JSON ('-' = stdout; none)

WORKLOAD OPTIONS (with `paba simulate --workload ...` or `paba workload generate`):
  --hotspots H      number of hotspot centers (4)
  --hot-radius R    ball radius around each center (3)
  --hot-fraction F  probability a request is hotspot-local (0.8)
  --hotspot-seed S  seed for center placement (1)
  --origin-gamma G  Zipf exponent over origin ranks (1.0)
  --flash-file F    boosted file id (0)
  --flash-start T   first boosted request (0)
  --flash-duration D  boosted window length in requests (1000)
  --flash-boost B   weight multiplier during the window (50)
  --flash-tau T     post-window decay constant in requests (0 = hard stop)
  --shift-epoch E   requests per popularity epoch (500)
  --shift-step S    rank rotation per epoch (1)
  --trace PATH      trace file to replay (with --workload trace)
  --cycle           wrap a finite trace instead of stopping

WORKLOAD GENERATE/INSPECT:
  generate: --out PATH (required; .csv extension = CSV, else binary),
            --workload/--side/--files/--cache/--gamma/--requests/--seed as above
  inspect:  --trace PATH (required), --top N hottest files/origins to list (5)

QUEUE OPTIONS (plus the workload options above):
  --side/--files/--cache/--gamma/--radius/--choices/--seed as above
  --strategy S      nearest | two-choice | d-choice | least-loaded (two-choice)
  --stale P         refresh queue-length info only every P dispatches, for
                    every strategy (1 = fresh)
  --lambda L        per-server arrival rate in (0,1) (0.8)
  --horizon T       simulated time (2000)
  --warmup T        measurement warm-up (500)

GATED SUITE OPTIONS (paba repro | churn | queueing):
  --scale S         quick | default | full experiment grids (default)
  --quick           shorthand for --scale quick
  --seed S          master seed (20170529)
  --runs R          override every experiment's Monte-Carlo run count
  --out PATH        artifact path (BENCH_<suite>.json; BENCH_<suite>_fresh.json
                    under --check; 'none' skips writing)
  --check           statistically diff the fresh run against --golden and
                    fail on regression or gate failure
  --golden PATH     committed golden artifact to diff against (BENCH_<suite>.json)
  --csv             emit CSV instead of tables
 churn and queueing add:
  --threads T       worker threads (0 = available parallelism)
  --serve-metrics ADDR  expose live progress at http://ADDR/metrics (churn
                    also exposes churn events, retries, failed requests,
                    and repair migrations)
  --side/--files/--cache/--gamma/--radius  override the network regime
 churn adds:
  --cycle-fraction F    fraction of nodes crashed/left then rejoined (0.2)
  --graceful-fraction F leave (with handoff) vs crash split (0.5)
  --inserts I       mid-run catalogue inserts (scale default)
  --repair P        none | random | two-choices (two-choices)
  --retry-budget B  dead-replica failover retries per request (8)
  --replication R   DHT successor replicas per file (3)
 queueing adds:
  --lambda L        per-server arrival rate of the paired arms (0.9)
  --horizon T       simulated time per run (scale default)
  --warmup T        measurement-window start (scale default)
  --stale-period P  stale-signal refresh period in dispatches (4n)

FIGURE OPTIONS (paba figure NAME|all):
  NAME              fig1_maxload_nearest | fig2_cost_nearest |
                    fig3_maxload_twochoice | fig4_cost_twochoice | fig5_tradeoff |
                    thm12_nearest_scaling | table_thm3_zipf_cost |
                    thm46_twochoice_scaling | lemma1_voronoi | lemma2_goodness |
                    lemma3_config_graph | examples_regimes | ablation_design |
                    supermarket_queueing | workloads
  --scale/--quick/--seed/--runs/--threads  as for the gated suites
  --csv             print each table as CSV under a '# NAME' line

REPORT OPTIONS:
  --dir DIR         directory scanned for BENCH_*.json artifacts (.)
  --out PATH        markdown output path ('-' = stdout, 'none' skips; -)
  exits nonzero on provenance/consistency failures (unknown schema,
  provenance contradicting its artifact); warnings are non-fatal

BALLSBINS OPTIONS:
  --process P       one | two | d | beta | batched (two)
  --bins N          number of bins (4096)
  --balls M         number of balls (= bins)
  --d D             choices for 'd'/'batched' (3)
  --beta B          beta for 'beta' (0.5)
  --batch B         batch size for 'batched' (64)
  --runs/--seed     as above";

const SIM_KEYS: &[&str] = &[
    "side",
    "files",
    "cache",
    "gamma",
    "placement",
    "strategy",
    "radius",
    "choices",
    "stale",
    "requests",
    "runs",
    "seed",
    "csv",
    "telemetry",
    "telemetry-out",
    "serve-metrics",
];

/// Trace options of `paba simulate`; any one of them traces the run.
const TRACE_KEYS: &[&str] = &[
    "sample",
    "reservoir",
    "stride",
    "max-events",
    "events-out",
    "series-out",
];

/// Workload-family option keys shared by `simulate` and `workload generate`.
const WORKLOAD_KEYS: &[&str] = &[
    "workload",
    "hotspots",
    "hot-radius",
    "hot-fraction",
    "hotspot-seed",
    "origin-gamma",
    "flash-file",
    "flash-start",
    "flash-duration",
    "flash-boost",
    "flash-tau",
    "shift-epoch",
    "shift-step",
    "trace",
    "cycle",
];

fn popularity(gamma: f64) -> Popularity {
    if gamma == 0.0 {
        Popularity::Uniform
    } else {
        Popularity::zipf(gamma)
    }
}

/// Parse the `--workload` family of options into a [`WorkloadSpec`].
fn workload_spec(a: &Args) -> Result<WorkloadSpec, String> {
    match a.str_or("workload", "iid").as_str() {
        "iid" => Ok(WorkloadSpec::Iid),
        "hotspot" => Ok(WorkloadSpec::Hotspot {
            hotspots: a.parse_or("hotspots", 4u32)?,
            radius: a.parse_or("hot-radius", 3u32)?,
            fraction: a.parse_or("hot-fraction", 0.8f64)?,
            seed: a.parse_or("hotspot-seed", 1u64)?,
        }),
        "zipf-origins" => Ok(WorkloadSpec::ZipfOrigins {
            gamma: a.parse_or("origin-gamma", 1.0f64)?,
        }),
        "flash-crowd" => Ok(WorkloadSpec::FlashCrowd {
            file: a.parse_or("flash-file", 0u32)?,
            start: a.parse_or("flash-start", 0u64)?,
            duration: a.parse_or("flash-duration", 1000u64)?,
            boost: a.parse_or("flash-boost", 50.0f64)?,
            tau: a.parse_or("flash-tau", 0.0f64)?,
        }),
        "shifting" => Ok(WorkloadSpec::Shifting {
            epoch: a.parse_or("shift-epoch", 500u64)?,
            step: a.parse_or("shift-step", 1u32)?,
        }),
        "trace" => WorkloadSpec::load(
            a.get("trace")
                .ok_or("--workload trace needs --trace <path>")?,
            a.flag("cycle"),
        ),
        other => Err(format!(
            "--workload: unknown workload '{other}' \
             (iid | hotspot | zipf-origins | flash-crowd | shifting | trace)"
        )),
    }
}

/// Three summaries every run family reports.
#[derive(Debug)]
pub(crate) struct SimStats {
    max_load: Summary,
    cost: Summary,
    fallback: Summary,
}

fn summarize_reports(reports: &[SimReport]) -> SimStats {
    SimStats {
        max_load: paba_mcrunner::summarize(reports.iter().map(|r| r.max_load() as f64)),
        cost: paba_mcrunner::summarize(reports.iter().map(|r| r.comm_cost())),
        fallback: paba_mcrunner::summarize(reports.iter().map(|r| r.fallback_fraction())),
    }
}

/// Error unless the command was invoked without a positional action
/// (only `paba workload <action>` takes one).
fn reject_action(a: &Args) -> Result<(), String> {
    match &a.action {
        Some(action) => Err(format!("unexpected positional argument '{action}'")),
        None => Ok(()),
    }
}

/// Print `t` as CSV under `--csv`, else as Markdown.
fn print_table(a: &Args, t: &Table) {
    if a.flag("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.to_markdown());
    }
}

/// The options every experiment driver (`paba repro|churn|queueing|
/// figure`) shares: `--scale` (or the `--quick` shorthand), `--seed`,
/// `--runs` and `--threads`.
fn experiment_config(a: &Args) -> Result<paba_repro::ReproConfig, String> {
    let scale = match a.get("scale") {
        _ if a.flag("quick") => Scale::Quick,
        None => Scale::default(),
        Some(s) => s
            .parse()
            .map_err(|_| format!("--scale: expected quick|default|full, got '{s}'"))?,
    };
    let mut cfg = paba_repro::ReproConfig::new(scale);
    cfg.seed = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    cfg.runs_override = a.parse_opt("runs")?;
    if cfg.runs_override == Some(0) {
        return Err("--runs must be a positive run count".into());
    }
    cfg.threads = a.parse_opt("threads")?.filter(|&t| t != 0);
    Ok(cfg)
}

/// `--side/--files/--cache/--gamma`, validated so a bad network shape is
/// an error instead of a panic inside the network builder. Absent keys
/// stay `None` for the caller's defaults; `radius` is left unset, since
/// `simulate` and `queue` accept `inf` where the gated suites take an
/// integer.
fn network_shape(a: &Args) -> Result<NetworkParams, String> {
    let side: Option<u32> = a.parse_opt("side")?;
    if let Some(s) = side.filter(|s| !(1..=Torus::MAX_SIDE).contains(s)) {
        return Err(format!(
            "--side must be in 1..={}, got {s}",
            Torus::MAX_SIDE
        ));
    }
    let files = a.parse_opt("files")?;
    if files == Some(0) {
        return Err("--files must be a positive library size".into());
    }
    let cache = a.parse_opt("cache")?;
    if cache == Some(0) {
        return Err("--cache must be a positive number of slots".into());
    }
    let gamma: Option<f64> = a.parse_opt("gamma")?;
    if let Some(g) = gamma.filter(|g| !(g.is_finite() && *g >= 0.0)) {
        return Err(format!(
            "--gamma must be a finite, non-negative Zipf exponent, got {g}"
        ));
    }
    Ok(NetworkParams {
        side,
        files,
        cache,
        gamma,
        radius: None,
    })
}

/// [`network_shape`] with defaults for absent keys: `(side, K, M, gamma)`,
/// gamma defaulting to uniform popularity.
fn shape_or(a: &Args, side: u32, k: u32, m: u32) -> Result<(u32, u32, u32, f64), String> {
    let s = network_shape(a)?;
    Ok((
        s.side.unwrap_or(side),
        s.files.unwrap_or(k),
        s.cache.unwrap_or(m),
        s.gamma.unwrap_or(0.0),
    ))
}

/// `--strategy/--radius/--choices/--stale`, shared by `simulate` and
/// `queue`: the one place a strategy name is mapped to a strategy.
fn strategy_spec(a: &Args) -> Result<StrategySpec, String> {
    let radius = a.radius("radius")?;
    let choices: u32 = a.positive_or("choices", 2, "number of choices")?;
    let stale_period: u64 = a.positive_or("stale", 1, "refresh period")?;
    let rule = match a.str_or("strategy", "two-choice").as_str() {
        "nearest" => StrategyRule::Nearest,
        "two-choice" => StrategyRule::Proximity { radius, d: 2 },
        "d-choice" => StrategyRule::Proximity { radius, d: choices },
        "least-loaded" => StrategyRule::LeastLoaded { radius },
        other => return Err(format!("--strategy: unknown strategy '{other}'")),
    };
    Ok(StrategySpec { rule, stale_period })
}

/// Everything one Monte-Carlo run of `paba simulate` needs. Shared by the
/// three recorder arms so all run byte-identical simulations — recording
/// never touches the RNG stream.
#[derive(Debug)]
struct SimRunCfg {
    side: u32,
    k: u32,
    m: u32,
    gamma: f64,
    strategy: StrategySpec,
    seed: u64,
    runs: usize,
    requests_opt: u64,
    placement: String,
    policy: PlacementPolicy,
    spec: WorkloadSpec,
}

/// One `paba simulate` run: build the network, instantiate the workload,
/// run the selected strategy with `rec` threaded through the hot path.
fn sim_run_one<Rec: Recorder + Clone>(
    cfg: &SimRunCfg,
    run_idx: usize,
    rng: &mut SmallRng,
    rec: &Rec,
) -> SimReport {
    let net: CacheNetwork<Torus> = if cfg.placement == "dht" {
        let library = paba_core::Library::new(cfg.k, popularity(cfg.gamma));
        let p = paba_dht::dht_placement(
            cfg.side * cfg.side,
            &library,
            &paba_dht::DhtPlacementConfig {
                vnodes: 128,
                salt: paba_util::mix_seed(cfg.seed, run_idx as u64),
                rule: paba_dht::ReplicationRule::Proportional { m: cfg.m },
            },
        );
        CacheNetwork::from_parts(Torus::new(cfg.side), library, p)
    } else {
        CacheNetwork::builder()
            .torus_side(cfg.side)
            .library(cfg.k, popularity(cfg.gamma))
            .cache_size(cfg.m)
            .placement_policy(cfg.policy)
            .build(rng)
    };
    let mut source = cfg
        .spec
        .build(&net, UncachedPolicy::ResampleFile)
        .expect("spec was validated before spawning runs");
    let requests = if cfg.requests_opt != 0 {
        cfg.requests_opt
    } else {
        // Finite sources (trace replay) default to their length.
        RequestSource::<Torus>::size_hint(&source).unwrap_or(net.n() as u64)
    };
    let mut s = cfg.strategy.build(rec.clone());
    simulate_source_profiled(&net, &mut s, &mut source, requests, rng, rec)
}

/// Write `content` to `path`, where `-` means stdout (so artifacts pipe
/// straight into `jq` & co). The "wrote …" notice goes to stderr and only
/// for real files, keeping stdout clean for the piped payload.
fn write_output(path: &str, content: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
        Ok(())
    }
}

/// Spawn the `/metrics` scrape endpoint when `--serve-metrics ADDR` was
/// given. The returned guard keeps the listener thread alive for the
/// duration of the run; dropping it stops the endpoint. The bound
/// address goes to stderr so `--serve-metrics 127.0.0.1:0` (ephemeral
/// port) is usable from scripts.
fn spawn_metrics(a: &Args, live: &LiveRun) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = a.get("serve-metrics") else {
        return Ok(None);
    };
    let render = {
        let live = live.clone();
        move || live.render_metrics()
    };
    let server = MetricsServer::spawn(addr, render)?;
    eprintln!(
        "serving live metrics on http://{}/metrics",
        server.local_addr()
    );
    Ok(Some(server))
}

/// Parse the `paba simulate` configuration.
fn sim_cfg_from_args(a: &Args) -> Result<SimRunCfg, String> {
    reject_action(a)?;
    a.check_keys(&[SIM_KEYS, WORKLOAD_KEYS, TRACE_KEYS].concat())?;
    let (side, k, m, gamma) = shape_or(a, 45, 500, 10)?;
    let strategy = strategy_spec(a)?;
    let runs: usize = a.positive_or("runs", 20, "run count")?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    let requests_opt: u64 = a.parse_or("requests", 0)?;
    let placement = a.str_or("placement", "proportional");

    let policy = match placement.as_str() {
        "proportional" => PlacementPolicy::ProportionalWithReplacement,
        "distinct" => PlacementPolicy::ProportionalDistinct,
        "full" => PlacementPolicy::FullLibrary,
        "dht" => PlacementPolicy::ProportionalWithReplacement, // replaced below
        other => return Err(format!("--placement: unknown policy '{other}'")),
    };
    if policy == PlacementPolicy::ProportionalDistinct && m > k {
        return Err(format!(
            "--placement distinct needs --cache ≤ --files (got {m} > {k})"
        ));
    }

    // Workload selection: parsed and validated once (traces load here),
    // then instantiated fresh for every Monte-Carlo run.
    let spec = workload_spec(a)?;
    spec.validate(side * side, k)?;
    if let WorkloadSpec::Replay {
        trace,
        cycle: false,
    } = &spec
    {
        if requests_opt > trace.len() {
            return Err(format!(
                "--requests {requests_opt} exceeds the trace length {} (pass --cycle to wrap)",
                trace.len()
            ));
        }
    }

    Ok(SimRunCfg {
        side,
        k,
        m,
        gamma,
        strategy,
        seed,
        runs,
        requests_opt,
        placement,
        policy,
        spec,
    })
}

/// What one `paba simulate` invocation collected: the per-run summaries,
/// the merged telemetry snapshot (with `--telemetry[-out]`), and the
/// trace (when a trace option was given).
#[derive(Debug)]
pub(crate) struct SimOutcome {
    cfg: SimRunCfg,
    stats: SimStats,
    telemetry: Option<TelemetrySnapshot>,
    trace: Option<TraceReport>,
}

/// The trace configuration when any trace option was given, else `None`.
fn trace_config(a: &Args, seed: u64) -> Result<Option<TraceConfig>, String> {
    if !TRACE_KEYS.iter().any(|key| a.get(key).is_some()) {
        return Ok(None);
    }
    let sampling = match (a.get("sample"), a.get("reservoir")) {
        (Some(_), Some(_)) => return Err("--sample and --reservoir are mutually exclusive".into()),
        (None, Some(_)) => Sampling::Reservoir(a.positive_or("reservoir", 1, "event capacity")?),
        _ => Sampling::OneIn(a.positive_or("sample", 16, "sampling period")?),
    };
    Ok(Some(TraceConfig {
        sampling,
        stride: a.parse_or("stride", 64)?,
        max_events: a.parse_or("max-events", 4096)?,
        seed,
    }))
}

/// `paba simulate`. The recorder is the cheapest one that serves every
/// requested output: a `TraceRecorder` per worker when a trace option
/// was given, an `AtomicRecorder` per worker for `--telemetry[-out]` or
/// `--serve-metrics`, else the `NullRecorder`. Both recording arms
/// register their workers' recorders in one [`LiveRun`];
/// `--serve-metrics` only spawns the endpoint over it. Recording never
/// touches the RNG stream, so every arm prints the same stats.
pub(crate) fn simulate_cmd_impl(a: &Args) -> Result<SimOutcome, String> {
    let cfg = sim_cfg_from_args(a)?;
    let (seed, runs) = (cfg.seed, cfg.runs);
    let trace_cfg = trace_config(a, seed)?;
    let telemetry = a.flag("telemetry") || a.get("telemetry-out").is_some();
    let live = LiveRun::new(runs as u64, false);
    let _server = spawn_metrics(a, &live)?;
    let (reports, telemetry, trace) = if let Some(trace_cfg) = trace_cfg {
        let (reports, report) =
            run_parallel_traced(runs, seed, None, Some(&live), trace_cfg, |rec, i, rng| {
                sim_run_one(&cfg, i, rng, &rec)
            });
        (reports, telemetry.then(|| live.snapshot()), Some(report))
    } else if telemetry || a.get("serve-metrics").is_some() {
        let (reports, _) = run_parallel_with_state(
            runs,
            seed,
            None,
            Some(live.progress.as_ref()),
            || live.recorder(),
            |rec, i, rng| sim_run_one(&cfg, i, rng, &rec.as_ref()),
        );
        (reports, telemetry.then(|| live.snapshot()), None)
    } else {
        let reports = run_parallel(runs, seed, None, |i, rng| {
            sim_run_one(&cfg, i, rng, &NullRecorder)
        });
        (reports, None, None)
    };
    Ok(SimOutcome {
        cfg,
        stats: summarize_reports(&reports),
        telemetry,
        trace,
    })
}

/// The human summary of a `paba simulate` run: the stats table, then
/// (unless `--csv`) the telemetry breakdown and the trace summary.
fn simulate_summary(a: &Args, out: &SimOutcome) -> String {
    let mut t = Table::new(["metric", "mean", "ci95", "min", "max"]);
    for (name, s) in [
        ("max load L", &out.stats.max_load),
        ("comm cost C (hops)", &out.stats.cost),
        ("fallback fraction", &out.stats.fallback),
    ] {
        t.push_row([
            name.to_string(),
            format!("{:.4}", s.mean),
            format!("±{:.4}", 1.96 * s.std_err),
            format!("{:.4}", s.min),
            format!("{:.4}", s.max),
        ]);
    }
    if a.flag("csv") {
        return t.to_csv();
    }
    let mut text = format!("{} runs:\n{}", out.cfg.runs, t.to_markdown());
    if let Some(snap) = &out.telemetry {
        text.push('\n');
        text.push_str(&snap.table());
    }
    if let Some(report) = &out.trace {
        let events: usize = report.runs.iter().map(|r| r.events.len()).sum();
        let dropped: u64 = report.runs.iter().map(|r| r.dropped()).sum();
        let mean = report.mean_series();
        text.push_str(&format!(
            "\ntraced {} requests: retained {events} sampled events \
             ({dropped} evicted by buffer bounds), {} series points/run\n",
            report.total_requests(),
            mean.points.len()
        ));
        if !mean.points.is_empty() {
            let mut t = Table::new(["requests", "max load", "mean load", "gap to mean", "p99"]);
            for p in &mean.points {
                t.push_row([
                    format!("{}", p.requests),
                    format!("{:.3}", p.max_load),
                    format!("{:.3}", p.mean_load),
                    format!("{:.3}", p.gap_to_mean),
                    format!("{:.3}", p.p99),
                ]);
            }
            text.push_str("\nmean load evolution across runs:\n");
            text.push_str(&t.to_markdown());
        }
    }
    text
}

/// `paba simulate` with printing and the requested output files.
pub fn simulate(a: &Args) -> Result<(), String> {
    let out = simulate_cmd_impl(a)?;
    let outputs = ["telemetry-out", "events-out", "series-out"];
    // When an artifact goes to stdout the human summary moves to stderr,
    // so `paba simulate --events-out - | jq` sees pure JSON.
    let text = simulate_summary(a, &out);
    if outputs.iter().any(|key| a.get(key) == Some("-")) {
        eprint!("{text}");
    } else {
        print!("{text}");
    }

    // The path an output goes to, unless absent or 'none'.
    let target = |key: &str| a.get(key).filter(|path| *path != "none");
    let (cfg, runs) = (&out.cfg, out.cfg.runs);
    if let (Some(snap), Some(path)) = (&out.telemetry, target("telemetry-out")) {
        let provenance = Provenance::capture(
            schema::TELEMETRY,
            cfg.seed,
            "custom",
            &format!("simulate telemetry runs:{runs}"),
        );
        let json = format!(
            "{{\n  \"schema\": \"{}\",\n  \"provenance\": {},\n  \"requests\": {},\n  \
             \"telemetry\": {}\n}}\n",
            schema::TELEMETRY,
            provenance.to_json(),
            snap.total_requests(),
            snap.to_json()
        );
        write_output(path, &json, "telemetry snapshot")?;
    }
    let Some(report) = &out.trace else {
        return Ok(());
    };
    if let Some(path) = target("events-out") {
        write_output(path, &report.events_jsonl(), "trace events")?;
    }
    if let Some(path) = target("series-out") {
        let stride: u64 = a.parse_or("stride", 64)?;
        let provenance = Provenance::capture(
            schema::TRACE_SERIES,
            cfg.seed,
            "custom",
            &format!(
                "trace side:{} files:{} cache:{} runs:{runs} stride:{stride}",
                cfg.side, cfg.k, cfg.m
            ),
        );
        write_output(path, &report.series_json(&provenance), "load time series")?;
    }
    Ok(())
}

/// `paba queue`.
pub fn queue(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let mut known = vec![
        "side", "files", "cache", "gamma", "radius", "choices", "strategy", "stale", "lambda",
        "horizon", "warmup", "seed", "csv",
    ];
    known.extend_from_slice(WORKLOAD_KEYS);
    a.check_keys(&known)?;
    let (side, k, m, gamma) = shape_or(a, 24, 32, 8)?;
    let strategy = strategy_spec(a)?;
    let lambda: f64 = a.parse_or("lambda", 0.8)?;
    let horizon: f64 = a.parse_or("horizon", 2_000.0)?;
    let warmup: f64 = a.parse_or("warmup", 500.0)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    let cfg = paba_supermarket::QueueSimConfig {
        lambda,
        horizon,
        warmup,
        tail_cap: 24,
        stride: 0,
    };
    cfg.validate()?;
    let spec = workload_spec(a)?;
    spec.validate(side * side, k)?;

    let mut rng = SmallRng::seed_from_u64(seed);
    let net = CacheNetwork::builder()
        .torus_side(side)
        .library(k, popularity(gamma))
        .cache_size(m)
        .build(&mut rng);
    let mut source = spec.build(&net, UncachedPolicy::ResampleFile)?;
    let mut s = strategy.build(NullRecorder);
    let rep = paba_supermarket::simulate_queueing_source(&net, &mut s, &mut source, &cfg, &mut rng);

    let mut t = Table::new(["metric", "value"]);
    t.push_row(["servers n".to_string(), format!("{}", rep.n)]);
    t.push_row(["lambda".to_string(), format!("{lambda}")]);
    t.push_row(["strategy".to_string(), a.str_or("strategy", "two-choice")]);
    t.push_row(["workload".to_string(), spec.name().to_string()]);
    t.push_row(["max queue".to_string(), format!("{}", rep.max_queue)]);
    t.push_row([
        "max queue (warmup)".to_string(),
        format!("{}", rep.pre_warmup_max_queue),
    ]);
    t.push_row(["mean queue".to_string(), format!("{:.4}", rep.mean_queue)]);
    t.push_row([
        "mean response".to_string(),
        format!("{:.4}", rep.mean_response),
    ]);
    t.push_row(["sojourn p50".to_string(), format!("{:.4}", rep.sojourn_p50)]);
    t.push_row(["sojourn p99".to_string(), format!("{:.4}", rep.sojourn_p99)]);
    t.push_row([
        "sojourn p999".to_string(),
        format!("{:.4}", rep.sojourn_p999),
    ]);
    t.push_row([
        "Little's-law response".to_string(),
        format!("{:.4}", rep.littles_law_response()),
    ]);
    t.push_row([
        "comm cost (hops)".to_string(),
        format!("{:.4}", rep.comm_cost),
    ]);
    for kq in 1..=6usize {
        t.push_row([format!("Pr[Q >= {kq}]"), format!("{:.5}", rep.tail_at(kq))]);
    }
    print_table(a, &t);
    Ok(())
}

/// `paba ballsbins`.
pub fn ballsbins(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let known = [
        "process", "bins", "balls", "d", "beta", "batch", "runs", "seed", "csv",
    ];
    a.check_keys(&known)?;
    let process = a.str_or("process", "two");
    let n: u32 = a.positive_or("bins", 4096, "number of bins")?;
    let m: u64 = a.parse_or("balls", n as u64)?;
    let d: u32 = a.positive_or("d", 3, "number of choices")?;
    let beta: f64 = a.parse_or("beta", 0.5)?;
    if !(0.0..=1.0).contains(&beta) {
        return Err(format!(
            "--beta: expected a probability in [0, 1], got {beta}"
        ));
    }
    let batch: u64 = a.positive_or("batch", 64, "batch size")?;
    let runs: usize = a.positive_or("runs", 20, "run count")?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    if !matches!(process.as_str(), "one" | "two" | "d" | "beta" | "batched") {
        return Err(format!("--process: unknown process '{process}'"));
    }

    let maxes: Vec<f64> = run_parallel(runs, seed, None, |_i, rng| {
        let res = match process.as_str() {
            "one" => paba_ballsbins::one_choice(n, m, rng),
            "two" => paba_ballsbins::two_choice(n, m, rng),
            "d" => paba_ballsbins::d_choice(n, m, d, rng),
            "beta" => paba_ballsbins::one_plus_beta(n, m, beta, rng),
            "batched" => paba_ballsbins::batched_d_choice(n, m, d, batch, rng),
            _ => unreachable!("validated above"),
        };
        res.max_load() as f64
    });
    let s = paba_mcrunner::summarize(maxes.iter().copied());
    let mut t = Table::new([
        "process",
        "bins",
        "balls",
        "max load (mean)",
        "ci95",
        "min",
        "max",
    ]);
    t.push_row([
        process,
        format!("{n}"),
        format!("{m}"),
        format!("{:.4}", s.mean),
        format!("±{:.4}", 1.96 * s.std_err),
        format!("{}", s.min),
        format!("{}", s.max),
    ]);
    print_table(a, &t);
    Ok(())
}

/// Do two path spellings name the same file? Canonicalizes each path
/// (falling back to canonicalizing the parent when the file does not
/// exist yet), so `BENCH_repro.json` and `./BENCH_repro.json` compare
/// equal; a raw string comparison backstops paths that cannot resolve.
fn same_file(a: &str, b: &str) -> bool {
    fn canon(p: &str) -> Option<std::path::PathBuf> {
        let path = std::path::Path::new(p);
        if let Ok(c) = std::fs::canonicalize(path) {
            return Some(c);
        }
        let parent = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        Some(std::fs::canonicalize(parent).ok()?.join(path.file_name()?))
    }
    match (canon(a), canon(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// Options every gated suite (`paba repro|churn|queueing`) accepts.
const SUITE_KEYS: &[&str] = &[
    "scale", "quick", "seed", "runs", "out", "check", "golden", "csv",
];

/// Options the churn and queueing suites add to [`SUITE_KEYS`]: worker
/// threads, the live endpoint, and the network-regime overrides.
const REGIME_KEYS: &[&str] = &[
    "threads",
    "serve-metrics",
    "side",
    "files",
    "cache",
    "gamma",
    "radius",
];

/// Churn-schedule and repair options of `paba churn`.
const CHURN_KEYS: &[&str] = &[
    "cycle-fraction",
    "graceful-fraction",
    "inserts",
    "repair",
    "retry-budget",
    "replication",
];

/// Engine options of `paba queueing`.
const QUEUEING_KEYS: &[&str] = &["lambda", "horizon", "warmup", "stale-period"];

/// The regime overrides the churn and queueing suites share.
fn network_params(a: &Args) -> Result<NetworkParams, String> {
    Ok(NetworkParams {
        radius: a.parse_opt("radius")?,
        ..network_shape(a)?
    })
}

/// A `[0, 1]` fraction option, `None` when absent.
fn fraction(a: &Args, key: &str) -> Result<Option<f64>, String> {
    match a.parse_opt::<f64>(key)? {
        Some(v) if !(0.0..=1.0).contains(&v) => {
            Err(format!("--{key}: expected a fraction in [0, 1], got {v}"))
        }
        v => Ok(v),
    }
}

fn churn_suite(a: &Args) -> Result<Suite, String> {
    Ok(Suite::Churn(ChurnParams {
        net: network_params(a)?,
        cycle_fraction: fraction(a, "cycle-fraction")?,
        graceful_fraction: fraction(a, "graceful-fraction")?,
        inserts: a.parse_opt("inserts")?,
        repair: a
            .get("repair")
            .map(|s| paba_churn::RepairPolicy::parse(s).map_err(|e| format!("--repair: {e}")))
            .transpose()?,
        retry_budget: a.parse_opt("retry-budget")?,
        replication: a.parse_opt("replication")?,
    }))
}

fn queueing_suite(a: &Args) -> Result<Suite, String> {
    let stale_period = a.parse_opt("stale-period")?;
    if stale_period == Some(0) {
        return Err("--stale-period must be a positive dispatch count".into());
    }
    Ok(Suite::Queueing(QueueingParams {
        net: network_params(a)?,
        lambda: a.parse_opt("lambda")?,
        horizon: a.parse_opt("horizon")?,
        warmup: a.parse_opt("warmup")?,
        stale_period,
    }))
}

/// `paba repro|churn|queueing` — one driver for the gated suites of
/// `paba-repro`: run the suite, print its gates, write the versioned
/// `BENCH_<suite>.json` artifact, and (with `--check`) statistically diff
/// against the committed golden.
pub fn gated_suite(a: &Args, name: &str) -> Result<(), String> {
    reject_action(a)?;
    type Parse = fn(&Args) -> Result<Suite, String>;
    let (keys, parse): (&[&[&str]], Parse) = match name {
        "repro" => (&[SUITE_KEYS], |_| Ok(Suite::Repro)),
        "churn" => (&[SUITE_KEYS, REGIME_KEYS, CHURN_KEYS], churn_suite),
        "queueing" => (&[SUITE_KEYS, REGIME_KEYS, QUEUEING_KEYS], queueing_suite),
        other => return Err(format!("unknown gated suite '{other}'")),
    };
    a.check_keys(&keys.concat())?;
    let cfg = experiment_config(a)?;
    let suite = parse(a)?;
    suite.validate(cfg.scale)?;
    let name = suite.name();

    let check = a.flag("check");
    let golden_path = a.str_or("golden", &format!("BENCH_{name}.json"));
    // Never clobber the golden we are about to diff against.
    let out = a.str_or(
        "out",
        &if check {
            format!("BENCH_{name}_fresh.json")
        } else {
            format!("BENCH_{name}.json")
        },
    );
    if a.get("golden").is_some() && !check {
        return Err(
            "--golden only makes sense with --check (a plain run would ignore it \
             and regenerate the artifact instead)"
                .into(),
        );
    }
    // Load the golden *before* running or writing anything: a fresh
    // artifact written over the golden would otherwise self-compare
    // (guaranteed green) while destroying the committed baseline.
    let golden = if check {
        if out != "none" && same_file(&out, &golden_path) {
            return Err(format!(
                "--check refuses to overwrite the golden it diffs against \
                 ('{golden_path}'); pass a different --out (or 'none')"
            ));
        }
        Some(paba_repro::Artifact::load_expecting(
            std::path::Path::new(&golden_path),
            suite.schema(),
        )?)
    } else {
        None
    };

    // `--serve-metrics`: every worker registers its own recorder, so a
    // scrape mid-suite sees the run as it happens — churn events,
    // dead-replica retries, and repair migrations for churn; progress
    // only for queueing, whose engine records no counters.
    let live = a
        .get("serve-metrics")
        .and(suite.planned_runs(&cfg))
        .map(|runs| LiveRun::new(runs as u64, false));
    let _server = match &live {
        Some(l) => spawn_metrics(a, l)?,
        None => None,
    };

    let artifact = suite.run(&cfg, live.as_ref());
    print_table(a, &paba_repro::gates_table(&artifact));
    if let (Some(l), Suite::Churn(_)) = (&live, suite) {
        eprint!("{}", l.snapshot().table());
    }
    if out != "none" {
        artifact.write(std::path::Path::new(&out))?;
        eprintln!(
            "wrote {} gates / {} metrics to {out}",
            artifact.gates.len(),
            artifact.metrics.len()
        );
    }
    if !artifact.all_gates_passed() {
        return Err(format!("{name} gates failed (see table above)"));
    }
    if let Some(golden) = golden {
        let rep = paba_repro::check(&artifact, &golden, paba_repro::DEFAULT_CHECK_Z)?;
        print_table(a, &paba_repro::check_table(&rep));
        if !rep.ok() {
            return Err(format!(
                "golden check failed: {} regression(s) vs {golden_path}",
                rep.regressions.len()
            ));
        }
        eprintln!("golden check passed against {golden_path}");
    }
    Ok(())
}

/// Options of `paba figure`.
const FIGURE_KEYS: &[&str] = &["scale", "quick", "seed", "runs", "threads", "csv"];

/// `paba figure NAME|all` — regenerate the paper's figure and theorem
/// tables (`paba_bench::figures`) and print them as Markdown, or as CSV
/// under `--csv`.
pub fn figure(a: &Args) -> Result<(), String> {
    a.check_keys(FIGURE_KEYS)?;
    let name = a
        .action
        .as_deref()
        .ok_or("figure needs a name: all, or one listed under FIGURE OPTIONS in 'paba help'")?;
    let figures = paba_bench::figures::select(name)?;
    let cfg = experiment_config(a)?;
    for run in figures {
        let mut sink = paba_bench::figures::Sink::default();
        run(&cfg, &mut sink);
        let csv = a.flag("csv");
        print!(
            "{}",
            if csv {
                sink.to_csv()
            } else {
                sink.to_markdown()
            }
        );
    }
    Ok(())
}

/// `paba report` — fold every `BENCH_*.json` artifact in a directory
/// into one markdown report with cross-artifact provenance consistency
/// checks. Warnings (missing provenance, debug builds, seed drift) are
/// reported but non-fatal; failures (unparseable artifact, unknown
/// schema, provenance contradicting its artifact) exit nonzero.
pub fn report(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    a.check_keys(&["dir", "out"])?;
    let dir = a.str_or("dir", ".");
    let out = a.str_or("out", "-");
    let rep = paba_bench::report::report_dir(std::path::Path::new(&dir))?;
    if out != "none" {
        write_output(&out, &rep.markdown, "benchmark report")?;
    }
    for w in &rep.warnings {
        eprintln!("warning: {w}");
    }
    for f in &rep.failures {
        eprintln!("FAIL: {f}");
    }
    eprintln!(
        "{} artifact(s), {} warning(s), {} failure(s)",
        rep.artifacts,
        rep.warnings.len(),
        rep.failures.len()
    );
    if !rep.failures.is_empty() {
        return Err(format!(
            "{} provenance/consistency failure(s) (see above)",
            rep.failures.len()
        ));
    }
    Ok(())
}

/// `paba workload <generate|inspect>`.
pub fn workload(a: &Args) -> Result<(), String> {
    match a.action.as_deref() {
        Some("generate") => workload_generate(a),
        Some("inspect") => workload_inspect(a),
        Some(other) => Err(format!(
            "unknown workload action '{other}' (generate | inspect)"
        )),
        None => Err("workload needs an action: generate | inspect".into()),
    }
}

fn workload_generate(a: &Args) -> Result<(), String> {
    let mut known = vec!["side", "files", "cache", "gamma", "requests", "seed", "out"];
    known.extend_from_slice(WORKLOAD_KEYS);
    a.check_keys(&known)?;
    let (side, k, m, gamma) = shape_or(a, 45, 500, 10)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    let requests_opt: u64 = a.parse_or("requests", 0)?;
    let out = a.get("out").ok_or("workload generate needs --out <path>")?;
    let spec = workload_spec(a)?;
    spec.validate(side * side, k)?;

    let mut rng = SmallRng::seed_from_u64(seed);
    let net = CacheNetwork::builder()
        .torus_side(side)
        .library(k, popularity(gamma))
        .cache_size(m)
        .build(&mut rng);
    let mut source = spec.build(&net, UncachedPolicy::ResampleFile)?;
    let requests = if requests_opt != 0 {
        requests_opt
    } else {
        RequestSource::<Torus>::size_hint(&source).unwrap_or(net.n() as u64)
    };
    let mut w = TraceWriter::create(out, net.n(), net.k())?;
    for _ in 0..requests {
        w.write(source.next_request(&net, &mut rng))?;
    }
    let written = w.finish()?;
    eprintln!(
        "wrote {written} requests ({} workload, n={}, K={}) to {out}",
        spec.name(),
        net.n(),
        net.k()
    );
    Ok(())
}

fn workload_inspect(a: &Args) -> Result<(), String> {
    a.check_keys(&["trace", "top", "csv"])?;
    let path = a
        .get("trace")
        .ok_or("workload inspect needs --trace <path>")?;
    let top: usize = a.parse_or("top", 5)?;
    let trace = paba_workload::Trace::load(path)?;

    let mut file_counts = vec![0u64; trace.k as usize];
    let mut origin_counts = vec![0u64; trace.n as usize];
    for r in &trace.records {
        file_counts[r.file as usize] += 1;
        origin_counts[r.origin as usize] += 1;
    }
    let total = trace.len().max(1) as f64;
    let ranked = |counts: &[u64]| -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    };

    let mut t = Table::new(["property", "value"]);
    t.push_row(["records".to_string(), format!("{}", trace.len())]);
    t.push_row(["nodes n".to_string(), format!("{}", trace.n)]);
    t.push_row(["library K".to_string(), format!("{}", trace.k)]);
    t.push_row([
        "distinct files".to_string(),
        format!("{}", file_counts.iter().filter(|&&c| c > 0).count()),
    ]);
    t.push_row([
        "distinct origins".to_string(),
        format!("{}", origin_counts.iter().filter(|&&c| c > 0).count()),
    ]);
    for (f, c) in ranked(&file_counts) {
        t.push_row([
            format!("top file {f}"),
            format!("{c} requests ({:.2}%)", 100.0 * c as f64 / total),
        ]);
    }
    for (o, c) in ranked(&origin_counts) {
        t.push_row([
            format!("top origin {o}"),
            format!("{c} requests ({:.2}%)", 100.0 * c as f64 / total),
        ]);
    }
    print_table(a, &t);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn simulate_small_run_works() {
        let a = args("simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3");
        let out = simulate_cmd_impl(&a).unwrap();
        assert_eq!(out.cfg.runs, 3);
        assert!(out.telemetry.is_none(), "no --telemetry, no snapshot");
        assert!(out.trace.is_none(), "no trace option, no trace");
        assert!(out.stats.max_load.mean >= 1.0);
        assert!(out.stats.cost.mean >= 0.0);
    }

    #[test]
    fn simulate_nearest_and_least_loaded() {
        for strat in ["nearest", "least-loaded", "d-choice"] {
            let a = args(&format!(
                "simulate --side 6 --files 10 --cache 2 --runs 2 --strategy {strat}"
            ));
            let stats = simulate_cmd_impl(&a).unwrap().stats;
            assert!(stats.max_load.mean >= 1.0, "{strat}");
        }
    }

    #[test]
    fn stale_applies_to_least_loaded() {
        let cost = |extra: &str| {
            let a = args(&format!(
                "simulate --side 12 --files 40 --cache 3 --runs 4 --radius 3 \
                 --strategy least-loaded {extra}"
            ));
            simulate_cmd_impl(&a).unwrap().stats.cost
        };
        assert_ne!(cost(""), cost("--stale 64"));
    }

    #[test]
    fn simulate_dht_placement() {
        let a = args("simulate --side 8 --files 30 --cache 3 --runs 2 --placement dht");
        let stats = simulate_cmd_impl(&a).unwrap().stats;
        assert!(stats.max_load.mean >= 1.0);
    }

    #[test]
    fn simulate_rejects_unknown_options() {
        for (argv, key) in [
            ("simulate --sid 8", "sid"),
            ("simulate --grid", "grid"),
            ("simulate --trace-out t.jsonl", "trace-out"),
            ("simulate --chrome-out x.json", "chrome-out"),
        ] {
            let err = simulate_cmd_impl(&args(argv)).unwrap_err();
            assert!(err.starts_with("unknown option"), "{argv}: {err}");
            assert!(err.contains(key), "{argv}: {err}");
        }
    }

    #[test]
    fn simulate_rejects_unknown_strategy() {
        let a = args("simulate --strategy magic");
        assert!(simulate(&a).unwrap_err().contains("magic"));
    }

    #[test]
    fn queue_validates_lambda() {
        let a = args("queue --lambda 1.5");
        assert!(queue(&a).unwrap_err().contains("lambda"));
    }

    #[test]
    fn queue_runs_every_strategy_and_workload() {
        for strat in ["nearest", "two-choice", "d-choice", "least-loaded"] {
            let a = args(&format!(
                "queue --side 6 --files 8 --cache 2 --lambda 0.6 \
                 --horizon 300 --warmup 50 --strategy {strat}"
            ));
            assert!(queue(&a).is_ok(), "{strat}");
        }
        // Stale load signal and a workload family in one.
        let a = args(
            "queue --side 6 --files 8 --cache 2 --lambda 0.6 --horizon 300 \
             --warmup 50 --stale 64 --workload flash-crowd",
        );
        assert!(queue(&a).is_ok());
        assert!(queue(&args("queue --strategy chaos"))
            .unwrap_err()
            .contains("chaos"));
        assert!(queue(&args("queue --stale 0"))
            .unwrap_err()
            .contains("stale"));
        assert!(queue(&args("queue --warmup 900 --horizon 800"))
            .unwrap_err()
            .contains("warmup"));
        // The queue-length series is never written anywhere, so there is
        // no option to sample it.
        assert!(queue(&args("queue --stride 32"))
            .unwrap_err()
            .contains("stride"));
    }

    #[test]
    fn ballsbins_runs_every_process() {
        for p in ["one", "two", "d", "beta", "batched"] {
            let a = args(&format!(
                "ballsbins --process {p} --bins 64 --balls 64 --runs 2"
            ));
            assert!(ballsbins(&a).is_ok(), "{p}");
        }
    }

    #[test]
    fn ballsbins_rejects_unknown_process() {
        let a = args("ballsbins --process three");
        assert!(ballsbins(&a).unwrap_err().contains("three"));
    }

    #[test]
    fn simulate_runs_every_synthetic_workload() {
        for w in ["hotspot", "zipf-origins", "flash-crowd", "shifting"] {
            let a = args(&format!(
                "simulate --side 6 --files 12 --cache 2 --runs 2 --workload {w}"
            ));
            let stats = simulate_cmd_impl(&a).unwrap().stats;
            assert!(stats.max_load.mean >= 1.0, "{w}");
        }
    }

    #[test]
    fn simulate_rejects_unknown_workload() {
        let a = args("simulate --workload chaos");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("chaos"));
    }

    #[test]
    fn simulate_rejects_invalid_workload_params() {
        let a = args("simulate --side 6 --files 12 --workload flash-crowd --flash-file 99");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("flash file"));
    }

    #[test]
    fn workload_generate_inspect_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("paba_cli_workload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.display();
        let g = args(&format!(
            "workload generate --side 6 --files 12 --cache 2 --requests 300 \
             --workload hotspot --out {path_s}"
        ));
        workload(&g).unwrap();
        let i = args(&format!("workload inspect --trace {path_s}"));
        workload(&i).unwrap();
        // Replaying through `simulate` must work and default to the
        // trace's length.
        let s = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --workload trace --trace {path_s}"
        ));
        let stats = simulate_cmd_impl(&s).unwrap().stats;
        assert!(stats.max_load.mean >= 1.0);
        // Replayed workloads are identical across runs and strategies: the
        // request stream is frozen, only assignment randomness differs.
        let too_many = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --requests 301 --workload trace \
             --trace {path_s}"
        ));
        assert!(simulate_cmd_impl(&too_many)
            .unwrap_err()
            .contains("exceeds the trace length"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_telemetry_accounts_for_every_request() {
        // side 8 → n = 64 requests per run, 3 runs.
        let a = args("simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3 --telemetry");
        let out = simulate_cmd_impl(&a).unwrap();
        let snap = out.telemetry.expect("--telemetry yields a snapshot");
        assert_eq!(snap.total_requests(), 3 * 64);
    }

    #[test]
    fn simulate_telemetry_does_not_change_results() {
        let base = "simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3";
        let plain = simulate_cmd_impl(&args(base)).unwrap().stats;
        let recorded = simulate_cmd_impl(&args(&format!("{base} --telemetry")))
            .unwrap()
            .stats;
        assert_eq!(plain.max_load.mean, recorded.max_load.mean);
        assert_eq!(plain.cost.mean, recorded.cost.mean);
        assert_eq!(plain.fallback.mean, recorded.fallback.mean);
    }

    #[test]
    fn simulate_telemetry_out_writes_snapshot_json() {
        let dir =
            std::env::temp_dir().join(format!("paba_cli_telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.json");
        let a = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --csv --telemetry-out {}",
            path.display()
        ));
        simulate(&a).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"paba-telemetry/2\""));
        assert!(json.contains("\"sampler_paths\""));
        std::fs::remove_file(&path).ok();
    }

    fn repro(a: &Args) -> Result<(), String> {
        gated_suite(a, "repro")
    }

    fn churn(a: &Args) -> Result<(), String> {
        gated_suite(a, "churn")
    }

    fn queueing(a: &Args) -> Result<(), String> {
        gated_suite(a, "queueing")
    }

    /// A scratch directory unique to this test process and `tag`.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("paba_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Generate a golden with `opts`, then `--check` a fresh run against it.
    fn assert_generate_then_check_round_trips(suite: &str, opts: &str) {
        let dir = scratch(&format!("{suite}_round_trip"));
        let golden = dir.join(format!("BENCH_{suite}.json"));
        let fresh = dir.join(format!("BENCH_{suite}_fresh.json"));
        gated_suite(
            &args(&format!("{suite} {opts} --out {}", golden.display())),
            suite,
        )
        .unwrap();
        let json = std::fs::read_to_string(&golden).unwrap();
        assert!(json.contains(&format!("\"schema\": \"paba-{suite}/1\"")));
        let chk = args(&format!(
            "{suite} {opts} --check --golden {} --out {}",
            golden.display(),
            fresh.display()
        ));
        gated_suite(&chk, suite).unwrap();
        assert!(fresh.exists(), "--check must write the fresh artifact");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A structurally valid artifact of another suite's schema must be
    /// refused as the golden, naming both schemas.
    fn assert_check_rejects_wrong_schema_golden(suite: &str, other: &str) {
        let dir = scratch(&format!("{suite}_schema"));
        let golden = dir.join(format!("BENCH_{other}.json"));
        std::fs::write(
            &golden,
            format!(
                "{{\"schema\": \"paba-{other}/1\", \"seed\": 1, \"scale\": \"quick\", \
                 \"gates\": [], \"metrics\": []}}"
            ),
        )
        .unwrap();
        let err = gated_suite(
            &args(&format!(
                "{suite} --quick --runs 2 --check --golden {} --out none",
                golden.display()
            )),
            suite,
        )
        .unwrap_err();
        assert!(err.contains(&format!("paba-{suite}/1")), "{err}");
        assert!(err.contains(&format!("paba-{other}/1")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Same file, different spelling (an extra `./` component): the
    /// overwrite guard must see through it and refuse before running.
    fn assert_check_refuses_aliased_golden_out_paths(suite: &str) {
        let dir = scratch(&format!("{suite}_alias"));
        let golden = dir.join(format!("BENCH_{suite}.json"));
        std::fs::write(&golden, "{}").unwrap();
        let aliased = dir.join(".").join(format!("BENCH_{suite}.json"));
        let a = args(&format!(
            "{suite} --quick --runs 2 --check --golden {} --out {}",
            golden.display(),
            aliased.display()
        ));
        let err = gated_suite(&a, suite).unwrap_err();
        assert!(err.contains("refuses to overwrite"), "{err}");
        // The refusal must happen before anything touched the golden.
        assert_eq!(std::fs::read_to_string(&golden).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_golden_without_check_is_an_error(suite: &str) {
        let a = args(&format!(
            "{suite} --quick --runs 2 --golden /tmp/whatever.json --out none"
        ));
        let err = gated_suite(&a, suite).unwrap_err();
        assert!(err.contains("--check"), "{err}");
    }

    #[test]
    fn repro_generate_then_check_round_trips() {
        // Reduced replication keeps this test fast; 16 runs still clears
        // every gate threshold with margin, and the self-check is exact.
        assert_generate_then_check_round_trips("repro", "--quick --runs 16");
    }

    #[test]
    fn churn_generate_then_check_round_trips() {
        assert_generate_then_check_round_trips("churn", "--quick --runs 8 --threads 2");
    }

    #[test]
    fn queueing_generate_then_check_round_trips() {
        assert_generate_then_check_round_trips("queueing", "--quick --runs 6 --threads 2");
    }

    #[test]
    fn repro_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("repro", "queueing");
    }

    #[test]
    fn churn_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("churn", "repro");
    }

    #[test]
    fn queueing_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("queueing", "churn");
    }

    #[test]
    fn repro_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("repro");
    }

    #[test]
    fn churn_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("churn");
    }

    #[test]
    fn queueing_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("queueing");
    }

    #[test]
    fn repro_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("repro");
    }

    #[test]
    fn churn_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("churn");
    }

    #[test]
    fn queueing_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("queueing");
    }

    #[test]
    fn repro_check_detects_doctored_golden() {
        let dir = scratch("repro_doctored");
        let golden = dir.join("BENCH_repro.json");
        repro(&args(&format!(
            "repro --quick --runs 16 --out {}",
            golden.display()
        )))
        .unwrap();
        // Corrupt one deterministic-looking metric far beyond noise.
        let doctored = std::fs::read_to_string(&golden).unwrap().replacen(
            "\"mean\": ",
            "\"mean\": 99999 , \"was\": ",
            1,
        );
        std::fs::write(&golden, doctored).unwrap();
        let err = repro(&args(&format!(
            "repro --quick --runs 16 --check --golden {} --out none",
            golden.display()
        )))
        .unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repro_rejects_unknown_options() {
        let a = args("repro --sacle quick");
        assert!(repro(&a).unwrap_err().contains("sacle"));
    }

    #[test]
    fn experiment_options_parse_all_fields() {
        let fields = |s: &str| {
            let cfg = experiment_config(&args(s)).unwrap();
            (cfg.scale, cfg.seed, cfg.runs_override, cfg.threads)
        };
        let all = fields("figure all --scale full --seed 99 --runs 1234 --threads 2");
        assert_eq!(all, (Scale::Full, 99, Some(1234), Some(2)));
        let seed = paba_util::envcfg::DEFAULT_SEED;
        assert_eq!(fields("figure all"), (Scale::Default, seed, None, None));
        // `--quick` wins over `--scale`; `--threads 0` = all cores.
        let quick = fields("figure all --scale full --quick --threads 0");
        assert_eq!(quick, (Scale::Quick, seed, None, None));
    }

    #[test]
    fn figure_rejects_bad_invocations() {
        assert!(figure(&args("figure"))
            .unwrap_err()
            .contains("needs a name"));
        let err = figure(&args("figure fig9")).unwrap_err();
        for name in ["fig9", "all", "fig1_maxload_nearest", "workloads"] {
            assert!(err.contains(name), "{err}");
        }
        for (bad, key) in [
            ("--out figs.csv", "out"),
            ("--runs 0", "--runs"),
            ("--scale huge", "--scale"),
            ("--seed x", "--seed"),
            ("--threads many", "--threads"),
        ] {
            let err = figure(&args(&format!("figure fig1_maxload_nearest {bad}"))).unwrap_err();
            assert!(err.contains(key), "{bad}: {err}");
        }
        assert!(figure(&args("figure fig2_cost_nearest --quick --runs 1 --csv")).is_ok());
    }

    #[test]
    fn help_lists_every_figure() {
        for (name, _) in paba_bench::figures::FIGURES {
            assert!(HELP.contains(name), "{name}");
        }
    }

    #[test]
    fn gated_suites_accept_exactly_their_option_sets() {
        // Each suite's option set, spelled out apart from the driver's key
        // tables, so a table edit that adds or drops an option fails here.
        let common = [
            "scale", "quick", "seed", "runs", "out", "check", "golden", "csv",
        ];
        let regime = [
            "threads",
            "serve-metrics",
            "side",
            "files",
            "cache",
            "gamma",
            "radius",
        ];
        let churn_own = [
            "cycle-fraction",
            "graceful-fraction",
            "inserts",
            "repair",
            "retry-budget",
            "replication",
        ];
        let queueing_own = ["lambda", "horizon", "warmup", "stale-period"];
        let expected: [(&str, Vec<&str>); 3] = [
            ("repro", common.to_vec()),
            ("churn", [&common[..], &regime, &churn_own].concat()),
            ("queueing", [&common[..], &regime, &queueing_own].concat()),
        ];
        let mut universe: Vec<&str> = [&common[..], &regime, &churn_own, &queueing_own].concat();
        universe.extend(SIM_KEYS);
        universe.extend(TRACE_KEYS);
        universe.extend(["process", "bins", "baseline", "dir", "typo"]);
        universe.sort_unstable();
        universe.dedup();
        for (suite, mut keys) in expected {
            // `--golden` without `--check` fails after option parsing and
            // before any run, so every key's fate shows in the error.
            let accepted: Vec<&str> = universe
                .iter()
                .copied()
                .filter(|key| {
                    let a = args(&format!(
                        "{suite} --{key} 1 --golden /nonexistent --out none"
                    ));
                    !gated_suite(&a, suite)
                        .unwrap_err()
                        .starts_with("unknown option")
                })
                .collect();
            keys.sort_unstable();
            assert_eq!(accepted, keys, "{suite}");
        }
    }

    #[test]
    fn churn_rejects_bad_options() {
        assert!(churn(&args("churn --sacle quick"))
            .unwrap_err()
            .contains("sacle"));
        assert!(
            churn(&args("churn --quick --repair best-effort --out none"))
                .unwrap_err()
                .contains("--repair")
        );
        assert!(
            churn(&args("churn --quick --cycle-fraction 1.5 --out none"))
                .unwrap_err()
                .contains("cycle-fraction")
        );
        assert!(churn(&args("churn --quick --side 1 --out none"))
            .unwrap_err()
            .contains("two nodes"));
    }

    #[test]
    fn queueing_rejects_bad_options() {
        assert!(queueing(&args("queueing --sacle quick"))
            .unwrap_err()
            .contains("sacle"));
        assert!(queueing(&args("queueing --quick --lambda 1.2 --out none"))
            .unwrap_err()
            .contains("lambda"));
        assert!(queueing(&args(
            "queueing --quick --warmup 500 --horizon 100 --out none"
        ))
        .unwrap_err()
        .contains("warmup"));
        assert!(
            queueing(&args("queueing --quick --stale-period 0 --out none"))
                .unwrap_err()
                .contains("stale-period")
        );
    }

    #[test]
    fn queueing_window_is_checked_against_the_effective_regime() {
        // One flag alone must be checked against the scale default of the
        // other, and a non-finite or negative window is never valid.
        for bad in [
            "--warmup 1e9",
            "--horizon 0",
            "--horizon -5",
            "--horizon nan",
            "--horizon inf",
            "--warmup -1",
            "--warmup nan",
            "--warmup 10 --horizon 5",
        ] {
            let err = queueing(&args(&format!(
                "queueing --quick --runs 1 {bad} --out none"
            )))
            .unwrap_err();
            assert!(err.contains("warmup"), "{bad}: {err}");
            let err = queue(&args(&format!("queue --side 4 {bad}"))).unwrap_err();
            assert!(err.contains("warmup"), "queue {bad}: {err}");
        }
    }

    #[test]
    fn bad_network_shapes_are_errors_in_every_subcommand() {
        type Cmd = fn(&Args) -> Result<(), String>;
        let commands: [(&str, Cmd); 5] = [
            ("simulate --runs 1", simulate),
            ("simulate --runs 1 --sample 4", simulate),
            ("queue --horizon 10 --warmup 1", queue),
            ("churn --quick --runs 1 --out none", churn),
            ("queueing --quick --runs 1 --out none", queueing),
        ];
        let bad = [
            ("--side 0", "--side"),
            ("--side 46341", "--side"),
            ("--files 0", "--files"),
            ("--cache 0", "--cache"),
            ("--gamma -1", "--gamma"),
            ("--gamma nan", "--gamma"),
            ("--gamma inf", "--gamma"),
        ];
        for (base, cmd) in commands {
            for (input, key) in bad {
                let result = cmd(&args(&format!("{base} {input}")));
                let err = result.expect_err(&format!("{base} {input} must fail"));
                assert!(err.contains(key), "{base} {input}: {err}");
            }
        }
        // Distinct placement cannot put more distinct files in a cache
        // than the library holds.
        let err = simulate(&args(
            "simulate --runs 1 --placement distinct --files 5 --cache 6",
        ))
        .unwrap_err();
        assert!(err.contains("--cache"), "{err}");
    }

    #[test]
    fn zero_counts_are_errors_not_panics_or_nan_tables() {
        type Cmd = fn(&Args) -> Result<(), String>;
        // `--runs 0` takes the gated suites' wording for the same mistake.
        const RUNS: &str = "--runs must be a positive run count";
        let cases: [(Cmd, &str, &str); 12] = [
            (
                simulate,
                "simulate --strategy d-choice --choices 0",
                "--choices",
            ),
            (
                simulate,
                "simulate --sample 4 --strategy d-choice --choices 0",
                "--choices",
            ),
            (queue, "queue --strategy d-choice --choices 0", "--choices"),
            (simulate, "simulate --stale 0", "--stale"),
            (simulate, "simulate --runs 0", RUNS),
            (simulate, "simulate --sample 4 --runs 0", RUNS),
            (ballsbins, "ballsbins --runs 0", RUNS),
            (ballsbins, "ballsbins --bins 0", "--bins"),
            (ballsbins, "ballsbins --process d --d 0", "--d"),
            (
                ballsbins,
                "ballsbins --process batched --batch 0",
                "--batch",
            ),
            (ballsbins, "ballsbins --process beta --beta 1.5", "--beta"),
            (ballsbins, "ballsbins --process beta --beta nan", "--beta"),
        ];
        for (cmd, argv, want) in cases {
            let err = cmd(&args(argv)).expect_err(&format!("{argv} must fail"));
            assert!(err.contains(want), "{argv}: {err}");
        }
    }

    #[test]
    fn workload_requires_action() {
        assert!(workload(&args("workload")).unwrap_err().contains("action"));
        assert!(workload(&args("workload prune"))
            .unwrap_err()
            .contains("prune"));
    }

    #[test]
    fn non_workload_commands_reject_stray_positionals() {
        // Only `workload` takes a second positional; everywhere else a
        // stray one must fail loudly, not be silently absorbed.
        assert!(
            simulate_cmd_impl(&args("simulate bogus --side 6 --files 12"))
                .unwrap_err()
                .contains("bogus")
        );
        assert!(queue(&args("queue bogus")).unwrap_err().contains("bogus"));
        assert!(ballsbins(&args("ballsbins bogus"))
            .unwrap_err()
            .contains("bogus"));
    }

    /// Parse one output file with the workspace's JSON reader.
    fn parse_file(path: &std::path::Path) -> paba_repro::json::Json {
        paba_repro::json::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn trace_writes_parseable_outputs() {
        let dir = scratch("trace_outputs");
        let events = dir.join("events.jsonl");
        let series = dir.join("series.json");
        let a = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --sample 4 --stride 16 --csv \
             --events-out {} --series-out {}",
            events.display(),
            series.display()
        ));
        simulate(&a).unwrap();
        // Every JSONL line is a standalone JSON object.
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let ev = paba_repro::json::parse(line).expect("event line parses");
            assert!(ev.get("request").is_some(), "{line}");
            assert!(ev.get("server").is_some(), "{line}");
        }
        // The series artifact carries its schema plus per-run and mean series.
        let doc = parse_file(&series);
        assert_eq!(
            doc.get("schema").and_then(paba_repro::json::Json::as_str),
            Some("paba-trace-series/1")
        );
        let runs = doc
            .get("runs")
            .and_then(paba_repro::json::Json::as_arr)
            .unwrap();
        assert_eq!(runs.len(), 2);
        assert!(doc.get("mean").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_writes_every_requested_output() {
        // Telemetry and both trace outputs from one run: each file must
        // exist and parse, and none may be dropped silently.
        let dir = scratch("all_outputs");
        let [t, e, s] = ["telemetry.json", "events.jsonl", "series.json"].map(|f| dir.join(f));
        // side 6: 36 requests per run; every 4th sampled gives 9 per run,
        // of which a 4-event ring keeps the last 4 and evicts 5.
        let a = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --sample 4 --max-events 4 \
             --telemetry-out {} --events-out {} --series-out {}",
            t.display(),
            e.display(),
            s.display()
        ));
        simulate(&a).unwrap();
        let telemetry = parse_file(&t);
        assert_eq!(
            telemetry
                .get("schema")
                .and_then(paba_repro::json::Json::as_str),
            Some("paba-telemetry/2")
        );
        assert_eq!(
            telemetry
                .get("requests")
                .and_then(paba_repro::json::Json::as_f64),
            Some(72.0)
        );
        let jsonl = std::fs::read_to_string(&e).unwrap();
        assert_eq!(jsonl.lines().count(), 2 * 4);
        for line in jsonl.lines() {
            paba_repro::json::parse(line).expect("event line parses");
        }
        parse_file(&s);
        // The summary reports what the buffers kept and what they evicted.
        let summary = simulate_summary(&a, &simulate_cmd_impl(&a).unwrap());
        assert!(
            summary.contains("retained 8 sampled events (10 evicted by buffer bounds)"),
            "{summary}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_rejects_conflicting_and_unknown_options() {
        let a = args("simulate --side 6 --files 12 --sample 4 --reservoir 8");
        assert!(simulate(&a).unwrap_err().contains("mutually exclusive"));
        let a = args("simulate --side 6 --files 12 --smaple 4");
        assert!(simulate(&a).unwrap_err().contains("smaple"));
        let a = args("simulate --side 6 --files 12 --sample 0");
        assert!(simulate(&a).unwrap_err().contains("--sample"));
    }

    #[test]
    fn simulate_trace_out_writes_jsonl() {
        let dir = scratch("sim_trace");
        let path = dir.join("trace.jsonl");
        let a = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --csv --sample 1 --events-out {}",
            path.display()
        ));
        simulate(&a).unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        // --sample 1 keeps every request: side 6 → 36 requests × 2 runs.
        assert_eq!(jsonl.lines().count(), 2 * 36);
        for line in jsonl.lines() {
            paba_repro::json::parse(line).expect("event line parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_serve_metrics_runs_and_matches_plain_results() {
        // An ephemeral port keeps the test parallel-safe; the endpoint's
        // HTTP behaviour is covered in paba-telemetry, here we check the
        // live path wires up and does not change the simulation.
        let base = "simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3";
        let plain = simulate_cmd_impl(&args(base)).unwrap().stats;
        let live = simulate_cmd_impl(&args(&format!("{base} --serve-metrics 127.0.0.1:0")))
            .unwrap()
            .stats;
        assert_eq!(plain.max_load.mean, live.max_load.mean);
        assert_eq!(plain.cost.mean, live.cost.mean);
    }

    #[test]
    fn trace_serve_metrics_still_traces() {
        let a = args(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --sample 4 --csv \
             --serve-metrics 127.0.0.1:0",
        );
        simulate(&a).unwrap();
        let trace = simulate_cmd_impl(&a).unwrap().trace.expect("traced");
        assert_eq!(trace.total_requests(), 2 * 36);
    }

    #[test]
    fn serve_metrics_rejects_bad_address() {
        let a = args("simulate --side 6 --files 12 --runs 1 --serve-metrics not-an-addr");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("not-an-addr"));
    }

    #[test]
    fn report_aggregates_generated_artifacts() {
        let dir = std::env::temp_dir().join(format!("paba_cli_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        churn(&args(&format!(
            "churn --quick --runs 8 --threads 2 --csv --out {}",
            dir.join("BENCH_churn.json").display()
        )))
        .unwrap();
        repro(&args(&format!(
            "repro --quick --runs 16 --out {}",
            dir.join("BENCH_repro.json").display()
        )))
        .unwrap();
        let out = dir.join("REPORT.md");
        report(&args(&format!(
            "report --dir {} --out {}",
            dir.display(),
            out.display()
        )))
        .unwrap();
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("# paba benchmark report"));
        assert!(md.contains("BENCH_churn.json"));
        assert!(md.contains("BENCH_repro.json"));
        assert_eq!(md.matches("Theorem gates").count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_fails_on_unknown_schema() {
        let dir = std::env::temp_dir().join(format!("paba_cli_report_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_alien.json"), r#"{"schema": "alien/9"}"#).unwrap();
        let err = report(&args(&format!("report --dir {} --out none", dir.display()))).unwrap_err();
        assert!(err.contains("failure"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_trace_shape_mismatch_rejected() {
        let dir = std::env::temp_dir().join("paba_cli_workload_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.display();
        let g = args(&format!(
            "workload generate --side 6 --files 12 --cache 2 --requests 50 --out {path_s}"
        ));
        workload(&g).unwrap();
        let s = args(&format!(
            "simulate --side 7 --files 12 --cache 2 --runs 1 --workload trace --trace {path_s}"
        ));
        assert!(simulate_cmd_impl(&s)
            .unwrap_err()
            .contains("does not match"));
        std::fs::remove_file(&path).ok();
    }
}
