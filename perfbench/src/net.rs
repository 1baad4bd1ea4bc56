//! Network set-up: through `CacheNetwork::builder` for the end-to-end
//! run, and split into `Placement::generate` plus
//! `CacheNetwork::from_parts` for the traced run.

use paba_core::{CacheNetwork, Library, Placement, PlacementPolicy};
use paba_popularity::Popularity;
use paba_topology::Torus;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

pub struct NetSpec {
    pub side: u32,
    pub k: u32,
    pub popularity: Popularity,
    pub m: u32,
    pub policy: PlacementPolicy,
}

impl NetSpec {
    /// Number of nodes, `side²`.
    pub fn nodes(&self) -> u64 {
        self.side as u64 * self.side as u64
    }

    /// Build through the builder, as a library user would.
    pub fn build(&self, seed: u64) -> CacheNetwork<Torus> {
        CacheNetwork::builder()
            .torus_side(self.side)
            .library(self.k, self.popularity.clone())
            .cache_size(self.m)
            .placement_policy(self.policy)
            .build(&mut SmallRng::seed_from_u64(seed))
    }

    /// Build from parts, timing the placement and the rest separately.
    /// Returns the network, the placement seconds and the network seconds.
    pub fn build_split(&self, seed: u64) -> (CacheNetwork<Torus>, f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let topo = Torus::new(self.side);
        let library = Library::new(self.k, self.popularity.clone());
        let t1 = Instant::now();
        let placement = Placement::generate(topo.n(), &library, self.m, self.policy, &mut rng);
        let t2 = Instant::now();
        let net = CacheNetwork::from_parts(topo, library, placement);
        let t3 = Instant::now();
        let network_s = (t1 - t0).as_secs_f64() + (t3 - t2).as_secs_f64();
        (net, (t2 - t1).as_secs_f64(), network_s)
    }
}

/// Same nodes, same per-node file lists.
pub fn same_placement(a: &Placement, b: &Placement) -> bool {
    a.n() == b.n()
        && a.k() == b.k()
        && a.is_full() == b.is_full()
        && (a.is_full() || (0..a.n()).all(|u| a.node_files(u) == b.node_files(u)))
}

/// Run `setup` `reps` times, dropping each result before the next so the
/// heap peak holds one copy, and return the last result with the
/// seconds of every repetition.
pub fn repeat_setup<X>(reps: usize, mut setup: impl FnMut() -> X) -> (X, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), times)
}
