//! Live observability handle for in-flight parallel runs.
//!
//! The per-worker recorders of [`crate::run_parallel_with_state`] are
//! private to their threads until the join. [`LiveRun`] makes them
//! visible mid-run without sharing one between workers: it is a
//! registry of each worker's [`AtomicRecorder`]. A worker registers its
//! recorder in its `init` (see [`LiveRun::recorder`], or
//! [`LiveRun::register`] for the aggregate a `TraceRecorder` embeds) and
//! then records into it alone, as it would without a live handle. A
//! scrape merges the registered snapshots with
//! [`TelemetrySnapshot::merge`]; the recorders' counters are relaxed
//! atomics, so reading them while their writers run is safe.
//!
//! The handle also carries one [`Progress`] tracker, ticked once per
//! completed run, and renders both into a Prometheus page on demand.
//! The `NullRecorder` fast path never registers anything.

use std::sync::{Arc, Mutex, PoisonError};

use paba_telemetry::serve::{render_metrics, ProgressView};
use paba_telemetry::{alloc, AtomicRecorder, TelemetrySnapshot};

use crate::progress::Progress;

/// Shared state of one live-observable run: the registered per-worker
/// recorders and a progress tracker. Cheap to clone (two `Arc`s) so the
/// scrape thread's render closure can own a handle.
#[derive(Clone, Debug)]
pub struct LiveRun {
    recorders: Arc<Mutex<Vec<Arc<AtomicRecorder>>>>,
    /// Completed-run tracker (also drives the stderr progress lines).
    pub progress: Arc<Progress>,
}

impl LiveRun {
    /// Fresh handle for `total` work units with no recorders registered;
    /// `verbose` enables the usual stderr progress lines alongside the
    /// scrape endpoint.
    pub fn new(total: u64, verbose: bool) -> Self {
        Self {
            recorders: Arc::new(Mutex::new(Vec::new())),
            progress: Arc::new(Progress::new(total, verbose)),
        }
    }

    /// Add `rec` to the registry, so snapshots include it from now on,
    /// and hand it back.
    pub fn register(&self, rec: Arc<AtomicRecorder>) -> Arc<AtomicRecorder> {
        self.recorders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&rec));
        rec
    }

    /// A fresh registered recorder: the `init` of one worker.
    pub fn recorder(&self) -> Arc<AtomicRecorder> {
        self.register(Arc::new(AtomicRecorder::new()))
    }

    /// Merged snapshot of every registered recorder.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let recorders = self
            .recorders
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut snap = TelemetrySnapshot::empty();
        for rec in recorders.iter() {
            snap.merge(&rec.snapshot());
        }
        snap
    }

    /// Plain-data progress view for the metrics renderer.
    pub fn progress_view(&self) -> ProgressView {
        ProgressView {
            completed: self.progress.completed(),
            total: self.progress.total(),
            elapsed_s: self.progress.elapsed().as_secs_f64(),
            rate: self.progress.rate(),
            eta_s: self.progress.eta_seconds(),
        }
    }

    /// Render the full Prometheus page: merged recorder snapshot,
    /// progress, and allocator stats when the counting allocator is
    /// installed.
    pub fn render_metrics(&self) -> String {
        render_metrics(
            &self.snapshot(),
            Some(&self.progress_view()),
            alloc::snapshot().as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_parallel_with_state;
    use paba_telemetry::{Counter, Recorder, SamplerPath};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// [`run_parallel_with_state`] with one registered recorder per
    /// worker and progress ticked on `live`.
    fn run_live<O: Send>(
        runs: usize,
        seed: u64,
        threads: usize,
        live: &LiveRun,
        f: impl Fn(&AtomicRecorder, usize, &mut SmallRng) -> O + Sync,
    ) -> Vec<O> {
        run_parallel_with_state(
            runs,
            seed,
            Some(threads),
            Some(live.progress.as_ref()),
            || live.recorder(),
            |rec, i, rng| f(rec, i, rng),
        )
        .0
    }

    /// The workers share one registry, each through its own recorder;
    /// the merged snapshot counts every event exactly once.
    #[test]
    fn workers_share_one_recorder_and_tick_progress() {
        let live = LiveRun::new(40, false);
        let out = run_live(40, 11, 4, &live, |rec, i, _rng| {
            for _ in 0..10 {
                rec.path(SamplerPath::Windowed);
            }
            rec.count(Counter::ChurnEvent, 1);
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(live.progress.completed(), 40);
        assert_eq!(live.recorders.lock().unwrap().len(), 4, "one per worker");
        let snap = live.snapshot();
        assert_eq!(snap.path_count(SamplerPath::Windowed), 400);
        assert_eq!(snap.counter(Counter::ChurnEvent), 40);
    }

    #[test]
    fn outputs_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let live = LiveRun::new(30, false);
            run_live(30, 77, threads, &live, |_rec, _i, rng| rng.gen::<u64>())
        };
        let t1 = run(1);
        assert_eq!(t1, run(3));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn render_metrics_mid_run_is_safe_and_monotone() {
        let live = LiveRun::new(16, false);
        // Scrape concurrently with the workers — must not tear or panic.
        let pages = std::thread::scope(|s| {
            let scraper = {
                let live = live.clone();
                s.spawn(move || {
                    let mut pages = Vec::new();
                    for _ in 0..20 {
                        pages.push(live.render_metrics());
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    pages
                })
            };
            let _ = run_live(16, 5, 4, &live, |rec, i, _rng| {
                for _ in 0..500 {
                    rec.path(SamplerPath::RejectionBall);
                }
                i
            });
            scraper.join().unwrap()
        });
        let totals: Vec<u64> = pages
            .iter()
            .map(|p| {
                p.lines()
                    .find(|l| l.starts_with("paba_requests_total "))
                    .and_then(|l| l.rsplit(' ').next())
                    .and_then(|v| v.parse().ok())
                    .unwrap()
            })
            .collect();
        assert!(totals.windows(2).all(|w| w[1] >= w[0]), "{totals:?}");
        let final_page = live.render_metrics();
        assert!(final_page.contains("paba_requests_total 8000"));
        assert!(final_page.contains("paba_progress_completed_runs 16"));
        assert!(final_page.contains("paba_progress_total_runs 16"));
    }
}
