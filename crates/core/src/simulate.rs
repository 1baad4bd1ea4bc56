//! End-to-end delivery-phase simulation.
//!
//! Replays the paper's experiment loop: `requests` sequential requests
//! (origin uniform, file popularity-distributed), each assigned by the
//! strategy *given the loads accumulated so far* — the sequential
//! balls-into-bins dynamic all the theorems are about.

use crate::metrics::SimReport;
use crate::network::CacheNetwork;
use crate::source::{IidUniform, RequestSource};
use crate::strategy::Strategy;
use paba_telemetry::{NullRecorder, Recorder};
use paba_topology::Topology;
use rand::Rng;

/// Run `requests` sequential requests from the paper's IID workload
/// ([`IidUniform`], uncached files resampled — see DESIGN.md §5) through
/// `strategy` and return the aggregated [`SimReport`].
///
/// For another workload or uncached-file policy, pass a source to
/// [`simulate_source`] (e.g. `IidUniform::with_policy(p)`).
pub fn simulate<T: Topology, S: Strategy<T>, R: Rng + ?Sized>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    requests: u64,
    rng: &mut R,
) -> SimReport {
    simulate_source(net, strategy, &mut IidUniform::new(), requests, rng)
}

/// Run `requests` sequential requests drawn from an arbitrary
/// [`RequestSource`] through `strategy`.
///
/// [`simulate_source_profiled`] with a [`NullRecorder`], which compiles
/// the recording away. For a finite source (e.g. a trace replay),
/// `requests` may not exceed the source's remaining length — finite
/// sources panic when drawn past the end.
pub fn simulate_source<T, S, W, R>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    rng: &mut R,
) -> SimReport
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
{
    simulate_source_profiled(net, strategy, source, requests, rng, &NullRecorder)
}

/// The request loop every entry point runs, with per-request load
/// observation: after each request is recorded, `rec` observes the full
/// load vector via [`Recorder::loads`] (feeding load-evolution time
/// series; a no-op for recorders that don't collect them).
///
/// The recorder passed here only watches loads; to count sampler paths
/// the *strategy* must carry a recorder too (see
/// `ProximityChoice::with_recorder`) — typically the same one.
pub fn simulate_source_profiled<T, S, W, R, Rec>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    rng: &mut R,
    rec: &Rec,
) -> SimReport
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
    Rec: Recorder,
{
    let mut report = SimReport::new(net.n());
    for i in 0..requests {
        let req = source.next_request(net, rng);
        let a = strategy.assign(net, &report.loads, req, rng);
        report.record(a.server, a.hops, a.fallback);
        if Rec::ENABLED {
            rec.loads(i, &report.loads);
        }
    }
    debug_assert!(report.check_conservation());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::UncachedPolicy;
    use crate::strategy::{NearestReplica, ProximityChoice};
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(8)
            .library(16, Popularity::Uniform)
            .cache_size(3)
            .build(&mut rng)
    }

    #[test]
    fn report_conserves_requests() {
        let net = net(1);
        let mut s = NearestReplica::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let rep = simulate(&net, &mut s, 300, &mut rng);
        assert_eq!(rep.total_requests, 300);
        assert!(rep.check_conservation());
        assert!(rep.max_load() >= (300 / net.n()).max(1));
    }

    #[test]
    fn observer_sees_every_request() {
        // The loop body written with the public calls: the same draws and
        // decisions as `simulate`, and every assignment's hop count is the
        // torus distance from origin to server.
        let net = net(3);
        let mut s = ProximityChoice::two_choice(Some(2));
        let mut rng = SmallRng::seed_from_u64(4);
        let mut source = IidUniform::new();
        let mut rep = SimReport::new(net.n());
        for _ in 0..123 {
            let req = source.next_request(&net, &mut rng);
            let a = s.assign(&net, &rep.loads, req, &mut rng);
            assert!(req.origin < net.n());
            assert_eq!(a.hops, net.topo().dist(req.origin, a.server));
            rep.record(a.server, a.hops, a.fallback);
        }
        assert_eq!(rep.total_requests, 123);
        let mut s = ProximityChoice::two_choice(Some(2));
        let mut rng = SmallRng::seed_from_u64(4);
        let looped = simulate(&net, &mut s, 123, &mut rng);
        assert_eq!(looped.loads, rep.loads);
        assert_eq!(looped.comm_cost(), rep.comm_cost());
    }

    #[test]
    fn loads_are_visible_to_the_strategy_as_they_accumulate() {
        // With a single file and full replication, two-choice spreads
        // requests: no node should end up with more than a small multiple
        // of the mean while a load-oblivious origin-server would not.
        let topo = Torus::new(8);
        let library = crate::Library::new(1, Popularity::Uniform);
        let placement = crate::Placement::full(64, 1);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let mut s = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(5);
        let rep = simulate(&net, &mut s, 64 * 8, &mut rng);
        // mean load 8; classic two-choice keeps the max within mean+O(loglog n).
        assert!(rep.max_load() <= 13, "max load {} too high", rep.max_load());
    }

    #[test]
    fn zero_requests() {
        let net = net(6);
        let mut s = NearestReplica::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let rep = simulate(&net, &mut s, 0, &mut rng);
        assert_eq!(rep.total_requests, 0);
        assert_eq!(rep.max_load(), 0);
    }

    #[test]
    fn serve_at_origin_policy_counts_uncached() {
        let mut rng = SmallRng::seed_from_u64(8);
        let sparse = CacheNetwork::builder()
            .torus_side(4)
            .library(500, Popularity::Uniform)
            .cache_size(1)
            .build(&mut rng);
        let mut s = NearestReplica::new();
        let mut source = IidUniform::with_policy(UncachedPolicy::ServeAtOrigin);
        let rep = simulate_source(&sparse, &mut s, &mut source, 2000, &mut rng);
        assert!(rep.uncached > 0, "this regime must hit uncached files");
        assert!(rep.check_conservation());
    }
}
