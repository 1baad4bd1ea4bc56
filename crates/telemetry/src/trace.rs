//! [`TraceRecorder`]: sampled per-request events + load time series.
//!
//! The aggregate counters in [`AtomicRecorder`] answer *how often* each
//! sampler path fires; a trace answers *when* and *for which request*.
//! `TraceRecorder` implements [`Recorder`] so any instrumented strategy
//! can feed it unchanged, and layers two collections on top of an
//! embedded `AtomicRecorder`, whose counters stay exact and which a
//! live `/metrics` scrape reads mid-run through
//! [`TraceRecorder::aggregate`]:
//!
//! * sampled [`TraceEvent`]s — 1-in-N or reservoir sampling into a
//!   bounded per-run buffer;
//! * a per-run [`LoadSeries`] via the [`Recorder::loads`] hook.
//!
//! **Determinism.** Every sampling decision depends only on the pair
//! (run index, within-run request counter): 1-in-N is a modulus on the
//! request counter and the reservoir RNG is reseeded per run from
//! `split_seed(cfg.seed, run)` at [`TraceRecorder::begin_run`]. Merged
//! through [`TraceReport::collect`] (which sorts by run index), event
//! streams and time series are bit-identical across thread counts.
//!
//! The recorder uses a `RefCell` internally: it is `Send` (one worker
//! thread owns it at a time, the `run_parallel_with_state` contract) but
//! deliberately not `Sync`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use paba_util::{split_seed, SplitMix64};

use crate::events::{Counter, SamplerPath};
use crate::recorder::{AtomicRecorder, Recorder};
use crate::timeseries::LoadSeries;

/// Which requests get a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Keep every n-th request (counting from the first); `OneIn(1)`
    /// keeps everything the event buffer can hold.
    OneIn(u64),
    /// Uniform sample of the given capacity over all requests in a run
    /// (Vitter's algorithm R, per-run deterministic seed).
    Reservoir(usize),
}

/// Configuration for a [`TraceRecorder`].
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Event sampling policy.
    pub sampling: Sampling,
    /// Load-series stride in requests; 0 disables the series.
    pub stride: u64,
    /// Ring-buffer bound for `OneIn` sampling: only the last `max_events`
    /// sampled events per run are kept (ignored by `Reservoir`, whose
    /// capacity is its own bound).
    pub max_events: usize,
    /// Trace seed; the reservoir RNG for run `i` is seeded
    /// `split_seed(seed, i)`.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sampling: Sampling::OneIn(1),
            stride: 0,
            max_events: 4096,
            seed: 0,
        }
    }
}

/// One sampled assignment, fully resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monte-Carlo run index.
    pub run: u64,
    /// Within-run request index (0-based).
    pub request: u64,
    /// Requested file id.
    pub file: u64,
    /// Requesting (origin) node.
    pub origin: u64,
    /// Node the request was assigned to.
    pub server: u64,
    /// Hop distance from origin to server.
    pub hops: u32,
    /// Sampler path that served the request, when one was recorded.
    pub path: Option<SamplerPath>,
    /// Materialized candidate-pool size, when one was recorded.
    pub pool_size: Option<u64>,
    /// `(node, load-at-decision-time)` candidates the strategy compared.
    pub candidates: Vec<(u64, u32)>,
}

/// Everything one run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTrace {
    /// Run index.
    pub run: u64,
    /// Requests observed in this run.
    pub requests: u64,
    /// Requests that passed the sampling filter (≥ `events.len()`; the
    /// difference was evicted by the ring/reservoir bound).
    pub sampled: u64,
    /// Retained events in request order.
    pub events: Vec<TraceEvent>,
    /// Load-evolution series for this run.
    pub series: LoadSeries,
}

impl RunTrace {
    /// Sampled events that were evicted by the buffer bound.
    pub fn dropped(&self) -> u64 {
        self.sampled - self.events.len() as u64
    }
}

#[derive(Debug)]
struct ActiveRun {
    run: u64,
    requests: u64,
    sampled: u64,
    events: VecDeque<TraceEvent>,
    series: LoadSeries,
    rng: SplitMix64,
    pending_path: Option<SamplerPath>,
    pending_pool: Option<u64>,
}

#[derive(Debug)]
struct TraceInner {
    finished: Vec<RunTrace>,
    active: Option<ActiveRun>,
}

/// A [`Recorder`] that captures traces (see module docs).
#[derive(Debug)]
pub struct TraceRecorder {
    aggregate: Arc<AtomicRecorder>,
    cfg: TraceConfig,
    inner: RefCell<TraceInner>,
}

impl TraceRecorder {
    /// Fresh recorder.
    #[inline]
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            aggregate: Arc::new(AtomicRecorder::new()),
            cfg,
            inner: RefCell::new(TraceInner {
                finished: Vec::new(),
                active: None,
            }),
        }
    }

    /// Start collecting for run `run`, finalizing any previous run. The
    /// reservoir RNG is reseeded from `(cfg.seed, run)` so the run's
    /// sample is independent of which thread executes it.
    pub fn begin_run(&self, run: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(act) = inner.active.take() {
            let done = Self::finalize(act, self.cfg.sampling);
            inner.finished.push(done);
        }
        inner.active = Some(self.fresh_run(run));
    }

    /// The embedded aggregate recorder, source of the `--telemetry`
    /// counters. Unlike the recorder itself it is `Sync`, so another
    /// thread may snapshot it while this one records.
    #[inline]
    pub fn aggregate(&self) -> Arc<AtomicRecorder> {
        Arc::clone(&self.aggregate)
    }

    /// Finalize and extract the per-run traces, in `begin_run` order.
    pub fn into_parts(self) -> Vec<RunTrace> {
        let inner = self.inner.into_inner();
        let mut runs = inner.finished;
        if let Some(act) = inner.active {
            runs.push(Self::finalize(act, self.cfg.sampling));
        }
        runs
    }

    fn fresh_run(&self, run: u64) -> ActiveRun {
        ActiveRun {
            run,
            requests: 0,
            sampled: 0,
            events: VecDeque::new(),
            series: LoadSeries::new(self.cfg.stride),
            rng: SplitMix64::new(split_seed(self.cfg.seed, run)),
            pending_path: None,
            pending_pool: None,
        }
    }

    fn finalize(act: ActiveRun, sampling: Sampling) -> RunTrace {
        let mut events: Vec<TraceEvent> = act.events.into();
        if matches!(sampling, Sampling::Reservoir(_)) {
            // Reservoir slots hold a uniform sample in replacement order;
            // present it in request order.
            events.sort_by_key(|e| e.request);
        }
        RunTrace {
            run: act.run,
            requests: act.requests,
            sampled: act.sampled,
            events,
            series: act.series,
        }
    }

    /// Run used for events recorded before any `begin_run` call.
    fn ensure_active<'a>(&self, inner: &'a mut TraceInner) -> &'a mut ActiveRun {
        if inner.active.is_none() {
            inner.active = Some(self.fresh_run(0));
        }
        inner.active.as_mut().expect("active run just ensured")
    }
}

impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn path(&self, path: SamplerPath) {
        self.aggregate.path(path);
        let mut inner = self.inner.borrow_mut();
        self.ensure_active(&mut inner).pending_path = Some(path);
    }

    #[inline]
    fn count(&self, counter: Counter, delta: u64) {
        self.aggregate.count(counter, delta);
    }

    #[inline]
    fn pool_size(&self, size: usize) {
        self.aggregate.pool_size(size);
        let mut inner = self.inner.borrow_mut();
        self.ensure_active(&mut inner).pending_pool = Some(size as u64);
    }

    fn request(
        &self,
        file: u64,
        origin: u64,
        server: u64,
        hops: u32,
        candidates: &mut dyn Iterator<Item = (u64, u32)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let act = self.ensure_active(&mut inner);
        let idx = act.requests;
        act.requests += 1;
        let path = act.pending_path.take();
        let pool_size = act.pending_pool.take();
        let keep = match self.cfg.sampling {
            Sampling::OneIn(n) => idx.is_multiple_of(n.max(1)),
            Sampling::Reservoir(_) => true,
        };
        if !keep {
            return;
        }
        act.sampled += 1;
        let event = TraceEvent {
            run: act.run,
            request: idx,
            file,
            origin,
            server,
            hops,
            path,
            pool_size,
            candidates: candidates.collect(),
        };
        match self.cfg.sampling {
            Sampling::OneIn(_) => {
                let cap = self.cfg.max_events.max(1);
                if act.events.len() == cap {
                    act.events.pop_front();
                }
                act.events.push_back(event);
            }
            Sampling::Reservoir(cap) => {
                let cap = cap.max(1);
                let seen = act.sampled - 1; // 0-based item index
                if (seen as usize) < cap {
                    act.events.push_back(event);
                } else {
                    // Algorithm R: keep with probability cap/(seen+1).
                    let j = act.rng.next_below(seen + 1);
                    if (j as usize) < cap {
                        act.events[j as usize] = event;
                    }
                }
            }
        }
    }

    fn loads(&self, request_index: u64, loads: &[u32]) {
        let mut inner = self.inner.borrow_mut();
        self.ensure_active(&mut inner)
            .series
            .observe(request_index, loads);
    }
}

/// Merged traces from a set of per-thread [`TraceRecorder`] states.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Per-run traces, sorted by run index (scheduling-independent).
    pub runs: Vec<RunTrace>,
}

impl TraceReport {
    /// Merge the recorder states returned by a parallel collection pass.
    /// Runs are keyed and sorted by run index, so the report does not
    /// depend on how runs were spread over threads.
    pub fn collect(states: Vec<TraceRecorder>) -> Self {
        let mut runs: Vec<RunTrace> = states
            .into_iter()
            .flat_map(TraceRecorder::into_parts)
            .collect();
        runs.sort_by_key(|r| r.run);
        Self { runs }
    }

    /// All retained events, in (run, request) order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.runs.iter().flat_map(|r| r.events.iter())
    }

    /// Total requests observed across runs.
    pub fn total_requests(&self) -> u64 {
        self.runs.iter().map(|r| r.requests).sum()
    }

    /// Pointwise-mean load series over all runs (deterministic fold in
    /// run-index order).
    pub fn mean_series(&self) -> LoadSeries {
        let series: Vec<&LoadSeries> = self.runs.iter().map(|r| &r.series).collect();
        LoadSeries::mean_over(&series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(rec: &TraceRecorder, run: u64, requests: u64) {
        rec.begin_run(run);
        let mut loads = vec![0u32; 8];
        for i in 0..requests {
            let server = (i % 8) as usize;
            rec.path(SamplerPath::Windowed);
            rec.pool_size(3);
            rec.request(
                i % 5,
                (i % 7) + 1,
                server as u64,
                1,
                &mut [(server as u64, loads[server])].iter().copied(),
            );
            loads[server] += 1;
            rec.loads(i, &loads);
        }
    }

    #[test]
    fn one_in_n_keeps_every_nth() {
        let rec = TraceRecorder::new(TraceConfig {
            sampling: Sampling::OneIn(4),
            stride: 0,
            max_events: 1024,
            seed: 9,
        });
        feed(&rec, 0, 10);
        let snap = rec.aggregate().snapshot();
        let runs = rec.into_parts();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.requests, 10);
        let picked: Vec<u64> = r.events.iter().map(|e| e.request).collect();
        assert_eq!(picked, vec![0, 4, 8]);
        assert_eq!(r.dropped(), 0);
        // The aggregate stays exact even though events are sampled.
        assert_eq!(snap.paths[SamplerPath::Windowed as usize], 10);
        let e = &r.events[1];
        assert_eq!(e.path, Some(SamplerPath::Windowed));
        assert_eq!(e.pool_size, Some(3));
        assert_eq!(e.candidates.len(), 1);
    }

    #[test]
    fn ring_buffer_keeps_last_events() {
        let rec = TraceRecorder::new(TraceConfig {
            sampling: Sampling::OneIn(1),
            stride: 0,
            max_events: 3,
            seed: 0,
        });
        feed(&rec, 0, 10);
        let runs = rec.into_parts();
        let picked: Vec<u64> = runs[0].events.iter().map(|e| e.request).collect();
        assert_eq!(picked, vec![7, 8, 9]);
        assert_eq!(runs[0].sampled, 10);
        assert_eq!(runs[0].dropped(), 7);
    }

    #[test]
    fn reservoir_is_bounded_sorted_and_seeded_per_run() {
        let cfg = TraceConfig {
            sampling: Sampling::Reservoir(5),
            stride: 0,
            max_events: 4096,
            seed: 42,
        };
        let rec = TraceRecorder::new(cfg.clone());
        feed(&rec, 3, 100);
        let runs = rec.into_parts();
        let r = &runs[0];
        assert_eq!(r.events.len(), 5);
        assert_eq!(r.sampled, 100);
        let picked: Vec<u64> = r.events.iter().map(|e| e.request).collect();
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(picked, sorted, "reservoir output is in request order");

        // Same run index ⇒ identical sample; different run ⇒ independent.
        let rec2 = TraceRecorder::new(cfg.clone());
        feed(&rec2, 3, 100);
        let runs2 = rec2.into_parts();
        assert_eq!(runs[0].events, runs2[0].events);
        let rec3 = TraceRecorder::new(cfg);
        feed(&rec3, 4, 100);
        let runs3 = rec3.into_parts();
        let picked3: Vec<u64> = runs3[0].events.iter().map(|e| e.request).collect();
        assert_ne!(picked, picked3);
    }

    #[test]
    fn series_capture() {
        let rec = TraceRecorder::new(TraceConfig {
            sampling: Sampling::OneIn(1),
            stride: 5,
            max_events: 16,
            seed: 0,
        });
        feed(&rec, 0, 10);
        let runs = rec.into_parts();
        let pts = &runs[0].series.points;
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].requests, 5);
        assert_eq!(pts[1].requests, 10);
    }

    #[test]
    fn collect_sorts_runs_by_index() {
        let cfg = TraceConfig {
            sampling: Sampling::OneIn(1),
            stride: 2,
            max_events: 64,
            seed: 7,
        };
        // Thread A ran runs {1, 3}, thread B ran {0, 2}.
        let a = TraceRecorder::new(cfg.clone());
        feed(&a, 1, 4);
        feed(&a, 3, 4);
        let b = TraceRecorder::new(cfg);
        feed(&b, 0, 4);
        feed(&b, 2, 4);
        let report = TraceReport::collect(vec![a, b]);
        let order: Vec<u64> = report.runs.iter().map(|r| r.run).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(report.total_requests(), 16);
        assert_eq!(report.mean_series().points.len(), 2);
        assert_eq!(report.events().count(), 16);
    }

    #[test]
    fn request_hook_works_through_reference() {
        // `&TraceRecorder` must forward the default-body hooks.
        let rec = TraceRecorder::new(TraceConfig::default());
        let by_ref = &rec;
        fn site<R: Recorder>(r: &R) {
            r.request(1, 2, 3, 1, &mut std::iter::empty());
            r.loads(0, &[1]);
        }
        site(&by_ref);
        let runs = rec.into_parts();
        assert_eq!(runs[0].events.len(), 1);
        assert_eq!(runs[0].events[0].server, 3);
    }
}
