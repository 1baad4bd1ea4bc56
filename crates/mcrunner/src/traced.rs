//! Trace collection over the parallel Monte-Carlo runner.
//!
//! [`run_parallel_traced`] is the deterministic collection path behind
//! the trace outputs of `paba simulate`: each worker thread owns one
//! [`TraceRecorder`] (built on [`run_parallel_with_state`]), every run
//! calls [`TraceRecorder::begin_run`] with its *run index* before
//! executing, and the per-thread states are merged with
//! [`TraceReport::collect`], which re-sorts by run index. Since every
//! sampling decision inside the recorder depends only on
//! `(run index, request counter)` — never on the thread — the merged
//! event streams and time series are bit-identical across thread counts.
//!
//! With a [`LiveRun`], each worker registers its recorder's embedded
//! aggregate, so a scrape sees the counters mid-run.

use rand::rngs::SmallRng;

use paba_telemetry::{TraceConfig, TraceRecorder, TraceReport};

use crate::live::LiveRun;
use crate::runner::run_parallel_with_state;

/// Run `runs` traced Monte-Carlo runs; returns the per-run outputs (in
/// run-index order, as [`crate::run_parallel`]) plus the merged
/// [`TraceReport`].
///
/// `run_fn(rec, run_index, rng)` executes one run; it should pass `rec`
/// to the instrumented strategy/simulation. `begin_run` is called for it
/// — the closure must not call it again. `live`, when given, is ticked
/// once per run and holds every worker's aggregate recorder.
pub fn run_parallel_traced<O, F>(
    runs: usize,
    master_seed: u64,
    threads: Option<usize>,
    live: Option<&LiveRun>,
    cfg: TraceConfig,
    run_fn: F,
) -> (Vec<O>, TraceReport)
where
    O: Send,
    F: Fn(&TraceRecorder, usize, &mut SmallRng) -> O + Sync,
{
    let cfg = &cfg;
    let (outputs, states) = run_parallel_with_state(
        runs,
        master_seed,
        threads,
        live.map(|l| l.progress.as_ref()),
        move || {
            let rec = TraceRecorder::new(cfg.clone());
            if let Some(l) = live {
                l.register(rec.aggregate());
            }
            rec
        },
        |rec, i, rng| {
            rec.begin_run(i as u64);
            run_fn(rec, i, rng)
        },
    );
    (outputs, TraceReport::collect(states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_telemetry::{Recorder, Sampling};
    use rand::Rng;

    fn trace_with(threads: usize) -> (Vec<u64>, TraceReport) {
        let cfg = TraceConfig {
            sampling: Sampling::Reservoir(8),
            stride: 16,
            max_events: 64,
            seed: 99,
        };
        run_parallel_traced(6, 4242, Some(threads), None, cfg, |rec, _i, rng| {
            // A synthetic "simulation": random assignments over 10 nodes.
            let mut loads = vec![0u32; 10];
            for r in 0..64u64 {
                let server = rng.gen_range(0..10usize);
                rec.request(
                    r % 3,
                    rng.gen_range(0..10u64),
                    server as u64,
                    1,
                    &mut std::iter::once((server as u64, loads[server])),
                );
                loads[server] += 1;
                rec.loads(r, &loads);
            }
            loads.iter().map(|&l| l as u64).sum()
        })
    }

    #[test]
    fn outputs_in_run_order_and_report_merged() {
        let (out, report) = trace_with(3);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|&s| s == 64));
        let order: Vec<u64> = report.runs.iter().map(|r| r.run).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(report.total_requests(), 6 * 64);
        for r in &report.runs {
            assert_eq!(r.events.len(), 8);
            assert_eq!(r.series.points.len(), 4);
        }
    }

    #[test]
    fn trace_is_identical_across_thread_counts() {
        let (out1, rep1) = trace_with(1);
        for threads in [2, 8] {
            let (out, rep) = trace_with(threads);
            assert_eq!(out, out1);
            assert_eq!(rep.runs, rep1.runs, "threads={threads}");
            assert_eq!(rep.mean_series(), rep1.mean_series(), "threads={threads}");
        }
    }
}
