//! The churn engine: liveness tracking, failure-degraded serving, and
//! pluggable replica repair.
//!
//! [`simulate_churn`] interleaves a [`ChurnSchedule`] with the standard
//! sequential request loop. Membership is one `alive` mask (who can
//! serve right now). The [`HashRing`] over every node is built once and
//! read through that mask (who *should* hold what: the
//! minimal-disruption directory that drives graceful handoff and
//! join-time refill), so the ring agrees with `alive` by construction
//! and a crash or leave does no ring work. A join looks up only the
//! files keyed inside the arcs it takes over ([`HashRing::live_arcs`]),
//! so an event's ring work is `O(V log n + M)`, not the `O(n·V + K)` of
//! rebuilding the ring and scanning every file.
//!
//! Crash, leave and insert each write the placement in one
//! `CacheNetwork::mutate_placement` batch; a join writes its ring refill
//! in one batch and each top-up draw in its own (a draw reads the
//! library, which a batch cannot reach). Every strategy's sampler and the
//! conditional cached-file sampler are thus consistent before the next
//! request, and the cached-file sampler is rebuilt only when the set of
//! cached files changed.

use crate::schedule::{ChurnEventKind, ChurnSchedule};
use paba_core::source::RequestSource;
use paba_core::{CacheNetwork, Placement, Request, SimReport, Strategy};
use paba_dht::HashRing;
use paba_popularity::FileId;
use paba_telemetry::{Counter, Recorder};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// How lost replicas are re-homed (and insert targets chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// No repair protocol: crashes leave the directory stale (requests
    /// discover dead replicas via bounded retries) and joins restore
    /// whatever the directory still attributes to the node.
    None,
    /// Re-replicate each lost copy to a uniform random live node with
    /// spare capacity.
    Random,
    /// Balanced-allocations repair: draw two candidate nodes and give the
    /// copy to the one caching fewer distinct files — the placement-level
    /// two-choices that keeps `min t(u)` (the δ half of (δ,µ)-goodness)
    /// from eroding under sustained churn.
    #[default]
    TwoChoices,
}

impl RepairPolicy {
    /// Kebab-case name (CLI argument / JSON value).
    pub fn label(self) -> &'static str {
        match self {
            RepairPolicy::None => "none",
            RepairPolicy::Random => "random",
            RepairPolicy::TwoChoices => "two-choices",
        }
    }

    /// Parse a [`RepairPolicy::label`] string.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(RepairPolicy::None),
            "random" => Ok(RepairPolicy::Random),
            "two-choices" => Ok(RepairPolicy::TwoChoices),
            other => Err(format!(
                "unknown repair policy '{other}' (expected none|random|two-choices)"
            )),
        }
    }
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChurnCfg {
    /// Replica repair policy.
    pub repair: RepairPolicy,
    /// How many *dead* replicas one request may probe past the strategy's
    /// original (dead) choice before giving up and serving degraded at
    /// its origin.
    pub retry_budget: u32,
    /// Ring replica-set size used for graceful handoff and join refill.
    pub replication: u32,
    /// Virtual nodes per server on the membership ring.
    pub vnodes: u32,
    /// Ring salt (vary per run for independent layouts).
    pub salt: u64,
}

impl Default for ChurnCfg {
    fn default() -> Self {
        Self {
            repair: RepairPolicy::TwoChoices,
            retry_budget: 8,
            replication: 3,
            vnodes: 64,
            salt: 0,
        }
    }
}

/// Failure/repair accounting for one churned run. Kept separate from
/// [`SimReport`] (whose schema is shared with static runs) and filled
/// independently of the recorder, so gates work under `NullRecorder`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Schedule events applied.
    pub events_applied: u64,
    /// Schedule events skipped (node already in the target state, or the
    /// last live node was asked to go down).
    pub events_skipped: u64,
    /// Dead-replica probes across all requests (each costs one unit of
    /// the per-request retry budget).
    pub retries: u64,
    /// Requests that exhausted the retry budget (or ran out of replicas)
    /// and were served degraded at their origin.
    pub failed: u64,
    /// Replicas moved or re-created by repair, handoff, or join refill.
    pub migrations: u64,
    /// Fresh replicas placed by insert events.
    pub inserted: u64,
    /// Resident files evicted under capacity pressure.
    pub evictions: u64,
    /// Replica copies dropped because no live node could take them.
    pub lost: u64,
}

impl ChurnReport {
    /// Fold another report into this one (for cross-run aggregation).
    pub fn merge(&mut self, other: &ChurnReport) {
        self.events_applied += other.events_applied;
        self.events_skipped += other.events_skipped;
        self.retries += other.retries;
        self.failed += other.failed;
        self.migrations += other.migrations;
        self.inserted += other.inserted;
        self.evictions += other.evictions;
        self.lost += other.lost;
    }
}

/// Rejection-sampling attempts when drawing a repair/insert target.
const DRAW_ATTEMPTS: u32 = 48;

/// Live-membership state plus repair machinery for one churned run.
pub struct ChurnEngine {
    alive: Vec<bool>,
    live: u32,
    /// The membership ring over every node, masked by `alive`.
    ring: HashRing,
    /// `(ring position, file)` for every file, sorted by position, so a
    /// join reads only the files in the arcs it takes over.
    keys: Vec<(u64, FileId)>,
    /// Scratch replica set for ring lookups.
    replicas: Vec<NodeId>,
    cfg: ChurnCfg,
    report: ChurnReport,
}

impl ChurnEngine {
    /// Start with every node alive.
    ///
    /// # Panics
    /// On the implicit full placement (churn requires a materialized,
    /// mutable placement).
    pub fn new<T: Topology>(net: &CacheNetwork<T>, cfg: ChurnCfg) -> Self {
        assert!(
            !net.placement().is_full(),
            "churn needs a materialized (non-full) placement"
        );
        let n = net.n();
        let ring = HashRing::new(n, cfg.vnodes, cfg.salt);
        let mut keys: Vec<(u64, FileId)> = (0..net.k())
            .map(|f| (ring.key_position(f as u64), f))
            .collect();
        keys.sort_unstable();
        Self {
            alive: vec![true; n as usize],
            live: n,
            ring,
            keys,
            replicas: Vec::with_capacity(cfg.replication as usize),
            cfg,
            report: ChurnReport::default(),
        }
    }

    /// Is `node` currently serving?
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node as usize]
    }

    /// Accounting so far.
    pub fn report(&self) -> &ChurnReport {
        &self.report
    }

    /// Consume the engine, yielding its accounting.
    pub fn into_report(self) -> ChurnReport {
        self.report
    }

    /// Apply one schedule event to the live network.
    pub fn apply<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        kind: ChurnEventKind,
        rng: &mut R,
        rec: &Rec,
    ) where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        let applied = match kind {
            ChurnEventKind::Crash { node } => self.crash(net, node, rng, rec),
            ChurnEventKind::Leave { node } => self.leave(net, node, rec),
            ChurnEventKind::Join { node } => self.join(net, node, rng, rec),
            ChurnEventKind::Insert { file } => self.insert_file(net, file, rng),
        };
        if applied {
            self.report.events_applied += 1;
            rec.count(Counter::ChurnEvent, 1);
        } else {
            self.report.events_skipped += 1;
        }
        debug_assert_eq!(
            self.live as usize,
            self.alive.iter().filter(|&&a| a).count()
        );
        debug_assert_eq!(
            net.cached_file_count(),
            net.k() - net.placement().uncached_files()
        );
    }

    /// Take `node` off the live set; `false` if it is already down or is
    /// the last live node.
    fn take_down(&mut self, node: NodeId) -> bool {
        if !self.alive[node as usize] || self.live == 1 {
            return false;
        }
        self.alive[node as usize] = false;
        self.live -= 1;
        true
    }

    /// Count `moved` migrations and `lost` dropped copies.
    fn migrated<Rec: Recorder>(&mut self, moved: u64, lost: u64, rec: &Rec) {
        self.report.migrations += moved;
        self.report.lost += lost;
        if moved > 0 {
            rec.count(Counter::RepairMigration, moved);
        }
    }

    fn crash<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        node: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        if !self.take_down(node) {
            return false;
        }
        if matches!(self.cfg.repair, RepairPolicy::None) {
            // No repair protocol: the directory goes stale. Requests keep
            // choosing this node's entries and pay retries to discover
            // the death — the degradation the repair-off gate bounds.
            return true;
        }
        // Active repair: drop the dead node's entries and re-home each
        // lost copy on a policy-chosen live node with spare capacity.
        let (moved, lost) = net.mutate_placement(|p| {
            let (mut moved, mut lost) = (0, 0);
            for f in p.remove_node_entries(node) {
                match self.pick_target(p, f, true, rng) {
                    Some(u) => {
                        p.insert(u, f);
                        moved += 1;
                    }
                    None => lost += 1,
                }
            }
            (moved, lost)
        });
        self.migrated(moved, lost, rec);
        true
    }

    fn leave<T, Rec>(&mut self, net: &mut CacheNetwork<T>, node: NodeId, rec: &Rec) -> bool
    where
        T: Topology,
        Rec: Recorder,
    {
        if !self.take_down(node) {
            return false;
        }
        // Graceful departure: the leaver hands each cached file to its
        // first live ring successor with room (the minimal-disruption
        // move), regardless of the repair policy — departure is the
        // node's own protocol, not the network's.
        let (ring, alive, succs) = (&self.ring, &self.alive, &mut self.replicas);
        let replication = self.cfg.replication as usize;
        let (moved, lost) = net.mutate_placement(|p| {
            let (mut moved, mut lost) = (0, 0);
            for f in p.remove_node_entries(node) {
                ring.live_replicas(f as u64, replication, alive, succs);
                match succs
                    .iter()
                    .copied()
                    .find(|&u| !p.caches(u, f) && p.t_u(u) < p.m())
                {
                    Some(u) => {
                        p.insert(u, f);
                        moved += 1;
                    }
                    None => lost += 1,
                }
            }
            (moved, lost)
        });
        self.migrated(moved, lost, rec);
        true
    }

    fn join<T, R, Rec>(
        &mut self,
        net: &mut CacheNetwork<T>,
        node: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        if self.alive[node as usize] {
            return false;
        }
        self.alive[node as usize] = true;
        self.live += 1;
        if matches!(self.cfg.repair, RepairPolicy::None) {
            // The node resumes serving whatever the (stale) directory
            // still attributes to it — a crash/rejoin round-trips its
            // cache contents.
            return true;
        }
        // Ring-driven refill: adopt the cached files whose replica set
        // now includes the joiner, up to capacity.
        let room = net.m() - net.placement().t_u(node);
        let adopt = self.ring_adoptions(net.placement(), node, room as usize);
        if !adopt.is_empty() {
            net.mutate_placement(|p| {
                for &f in &adopt {
                    p.insert(node, f);
                }
            });
            self.migrated(adopt.len() as u64, 0, rec);
        }
        // Top-up: the ring only hands the joiner the few files it is a
        // directory successor for (≈ K·R/n in expectation). A real cache
        // re-seeds the rest of its capacity exactly like the placement
        // phase — up to M popularity draws (duplicates waste the draw,
        // matching the with-replacement model) — so `t(u)` recovers to
        // its static level and the δ half of goodness survives rejoins.
        let mut drawn = 0u64;
        for _ in 0..net.m() {
            if net.placement().t_u(node) >= net.m() {
                break;
            }
            let f = net.library().sample_file(rng);
            if !net.placement().caches(node, f) {
                net.mutate_placement(|p| p.insert(node, f));
                drawn += 1;
            }
        }
        self.migrated(drawn, 0, rec);
        true
    }

    /// The first `room` files, in file order, that are cached somewhere
    /// but not at the live `node`, and whose live replica set includes
    /// `node`. Only the files keyed inside `node`'s
    /// [`HashRing::live_arcs`] can qualify, so only those are looked up.
    fn ring_adoptions(&mut self, p: &Placement, node: NodeId, room: usize) -> Vec<FileId> {
        let mut out = Vec::new();
        if room == 0 {
            return out;
        }
        let replication = self.cfg.replication as usize;
        let keys = &self.keys;
        for (from, to) in self.ring.live_arcs(node, replication, &self.alive) {
            let lo = keys.partition_point(|&(pos, _)| pos <= from);
            let hi = keys.partition_point(|&(pos, _)| pos <= to);
            let (a, b) = if from < to {
                (&keys[lo..hi], &keys[..0])
            } else {
                (&keys[lo..], &keys[..hi])
            };
            for &(_, f) in a.iter().chain(b) {
                if p.replica_count(f) == 0 || p.caches(node, f) {
                    continue;
                }
                self.ring
                    .live_replicas(f as u64, replication, &self.alive, &mut self.replicas);
                if self.replicas.contains(&node) {
                    out.push(f);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.truncate(room);
        out
    }

    fn insert_file<T, R>(&mut self, net: &mut CacheNetwork<T>, file: FileId, rng: &mut R) -> bool
    where
        T: Topology,
        R: Rng + ?Sized,
    {
        let copies = self.cfg.replication.min(self.live);
        let (inserted, evictions, lost) = net.mutate_placement(|p| {
            let (mut inserted, mut evictions, mut lost) = (0, 0, 0);
            for _ in 0..copies {
                // Insert targets may be full — ingest is what creates
                // capacity pressure — so eviction is allowed here (and
                // only here; repair never destroys resident data).
                let Some(u) = self.pick_target(p, file, false, rng) else {
                    lost += 1;
                    continue;
                };
                if p.t_u(u) >= p.m() {
                    let resident = p.node_files(u);
                    let victim = resident[rng.gen_range(0..resident.len())];
                    p.remove(u, victim);
                    evictions += 1;
                }
                p.insert(u, file);
                inserted += 1;
            }
            (inserted, evictions, lost)
        });
        self.report.inserted += inserted;
        self.report.evictions += evictions;
        self.report.lost += lost;
        inserted > 0
    }

    /// Uniform live node not yet caching `file`; with `need_room`, only
    /// one with spare capacity (repair must not evict, inserts may).
    /// `None` after [`DRAW_ATTEMPTS`] rejections.
    fn draw_target<R>(
        &self,
        p: &Placement,
        file: FileId,
        need_room: bool,
        rng: &mut R,
    ) -> Option<NodeId>
    where
        R: Rng + ?Sized,
    {
        for _ in 0..DRAW_ATTEMPTS {
            let u = rng.gen_range(0..p.n());
            if self.alive[u as usize] && !p.caches(u, file) && (!need_room || p.t_u(u) < p.m()) {
                return Some(u);
            }
        }
        None
    }

    /// The policy's target for a new copy of `file`: the less loaded of
    /// two [`Self::draw_target`] draws under two-choices repair, else
    /// one draw.
    fn pick_target<R>(
        &self,
        p: &Placement,
        file: FileId,
        need_room: bool,
        rng: &mut R,
    ) -> Option<NodeId>
    where
        R: Rng + ?Sized,
    {
        if !matches!(self.cfg.repair, RepairPolicy::TwoChoices) {
            return self.draw_target(p, file, need_room, rng);
        }
        match (
            self.draw_target(p, file, need_room, rng),
            self.draw_target(p, file, need_room, rng),
        ) {
            (Some(a), Some(b)) => Some(if p.t_u(b) < p.t_u(a) { b } else { a }),
            (a, b) => a.or(b),
        }
    }

    /// Failure-degraded serving: the strategy chose a dead server. Probe
    /// the file's other replicas nearest-first (uniform tie-breaking);
    /// each dead probe costs one unit of the retry budget. Returns the
    /// first live replica hit, or `None` when the budget (or the replica
    /// list) is exhausted — the caller then serves degraded at the
    /// origin.
    pub fn failover<T, R, Rec>(
        &mut self,
        net: &CacheNetwork<T>,
        req: Request,
        dead_choice: NodeId,
        rng: &mut R,
        rec: &Rec,
    ) -> Option<(NodeId, u32)>
    where
        T: Topology,
        R: Rng + ?Sized,
        Rec: Recorder,
    {
        // Discovering the original choice is dead is the first retry.
        self.report.retries += 1;
        rec.count(Counter::DeadReplicaRetry, 1);
        let reps = net
            .placement()
            .replica_list(req.file)
            .expect("churn placement is materialized");
        let mut order: Vec<(u32, u32, NodeId)> = reps
            .iter()
            .filter(|&&v| v != dead_choice)
            .map(|&v| (net.topo().dist(req.origin, v), rng.gen::<u32>(), v))
            .collect();
        order.sort_unstable();
        let mut budget = self.cfg.retry_budget;
        for &(d, _, v) in &order {
            if self.alive[v as usize] {
                return Some((v, d));
            }
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.report.retries += 1;
            rec.count(Counter::DeadReplicaRetry, 1);
        }
        self.report.failed += 1;
        rec.count(Counter::FailedRequest, 1);
        None
    }
}

/// Run a delivery phase with churn events interleaved: before request `i`
/// is served, every schedule event with `at ≤ i` fires. Requests whose
/// chosen server is dead take the failover path; requests that exhaust
/// the retry budget are served degraded at their origin (zero hops —
/// a backhaul fetch charged to the requester).
///
/// The `(SimReport, ChurnReport)` pair separates the paper's load/cost
/// metrics from failure accounting. The recorder feeds the usual
/// telemetry ([`Counter::ChurnEvent`], [`Counter::DeadReplicaRetry`],
/// [`Counter::FailedRequest`], [`Counter::RepairMigration`]) and
/// compiles to no-ops under `NullRecorder`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_churn<T, S, W, R, Rec>(
    net: &mut CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    schedule: &ChurnSchedule,
    cfg: ChurnCfg,
    rng: &mut R,
    rec: &Rec,
) -> (SimReport, ChurnReport)
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
    Rec: Recorder,
{
    let mut engine = ChurnEngine::new(net, cfg);
    let mut report = SimReport::new(net.n());
    let events = schedule.events();
    let mut next = 0usize;
    for i in 0..requests {
        while next < events.len() && events[next].at <= i {
            engine.apply(net, events[next].kind, rng, rec);
            next += 1;
        }
        let req = source.next_request(net, rng);
        let a = strategy.assign(net, &report.loads, req, rng);
        if engine.is_alive(a.server) {
            report.record(a.server, a.hops, a.fallback);
        } else {
            match engine.failover(net, req, a.server, rng, rec) {
                Some((server, hops)) => report.record(server, hops, a.fallback),
                None => report.record(req.origin, 0, None),
            }
        }
        if Rec::ENABLED {
            rec.loads(i, &report.loads);
        }
    }
    debug_assert!(report.check_conservation());
    (report, engine.into_report())
}

#[cfg(test)]
impl ChurnEngine {
    /// [`ChurnEngine::ring_adoptions`] as a scan over all `K` files, each
    /// checked with a live ring lookup: the reference the arc-scoped
    /// version must agree with.
    fn ring_adoptions_full_scan(&self, p: &Placement, node: NodeId, room: usize) -> Vec<FileId> {
        let mut room = room;
        let mut out = Vec::new();
        let mut replicas = Vec::new();
        for f in 0..p.k() {
            if room == 0 {
                break;
            }
            if p.replica_count(f) == 0 || p.caches(node, f) {
                continue;
            }
            let r = self.cfg.replication as usize;
            self.ring
                .live_replicas(f as u64, r, &self.alive, &mut replicas);
            if replicas.contains(&node) {
                out.push(f);
                room -= 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;
    use paba_telemetry::NullRecorder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn arc_scoped_join_adopts_what_the_full_scan_adopts() {
        // (torus side, K, M, vnodes, replication). The side-2 and side-3
        // rings have 4–36 points, so arcs wrap past the top; R = 5 on
        // n = 4 always has fewer live servers than R, and crashes can
        // leave a single live server elsewhere.
        let cases = [
            (2, 12, 3, 1, 2),
            (2, 30, 4, 2, 5),
            (3, 40, 3, 1, 3),
            (3, 60, 5, 4, 4),
            (6, 200, 5, 16, 3),
            (10, 500, 8, 64, 3),
        ];
        for (case, &(side, k, m, vnodes, replication)) in cases.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(case as u64);
            let mut net = CacheNetwork::builder()
                .torus_side(side)
                .library(k, Popularity::zipf(0.8))
                .cache_size(m)
                .build(&mut rng);
            let cfg = ChurnCfg {
                replication,
                vnodes,
                salt: case as u64,
                ..ChurnCfg::default()
            };
            let mut engine = ChurnEngine::new(&net, cfg);
            let n = net.n();
            let mut adopted = 0usize;
            for step in 0..80 {
                let node = rng.gen_range(0..n);
                let kind = match rng.gen_range(0..3) {
                    0 => ChurnEventKind::Crash { node },
                    1 => ChurnEventKind::Leave { node },
                    _ => ChurnEventKind::Join { node },
                };
                engine.apply(&mut net, kind, &mut rng, &NullRecorder);
                // A rotating twelfth of the live nodes (all of them on the
                // small rings) as if each had just joined, uncapped and
                // under its real and a tight capacity cap.
                let stride = (n / 12).max(1);
                let live: Vec<NodeId> = (0..n)
                    .filter(|&u| engine.is_alive(u) && (u + step) % stride == 0)
                    .collect();
                for u in live {
                    let room = (m - net.placement().t_u(u)) as usize;
                    for room in [usize::MAX, room, 1] {
                        let fast = engine.ring_adoptions(net.placement(), u, room);
                        let slow = engine.ring_adoptions_full_scan(net.placement(), u, room);
                        assert_eq!(fast, slow, "case {case} step {step} node {u} room {room}");
                        adopted += fast.len();
                    }
                }
            }
            assert!(adopted > 0, "case {case}: no adoption was compared");
        }
    }
}
