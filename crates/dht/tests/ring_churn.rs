//! Property tests for [`HashRing`] under *batched* churn.
//!
//! The ring is built once and membership is a live mask, so churn is a
//! sequence of mask flips. Two properties drive the churn engine's
//! correctness:
//!
//! 1. **History independence** — after any interleaving of joins and
//!    leaves, lookups and k-distinct-successor sets depend only on the
//!    final membership set: they equal a brute-force successor scan over
//!    [`HashRing::points`] restricted to that set.
//! 2. **Minimal disruption** — across each step, a key changes hands
//!    only if its old owner left or its new owner just joined, and the
//!    moved fraction stays near the 1/|servers| ideal.

use paba_dht::HashRing;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: u32 = 24;
const VNODES: u32 = 64;
const SALT: u64 = 0x5EED;
const KEYS: u64 = 6_000;
/// Keys checked against the linear-scan oracle after every step.
const ORACLE_KEYS: u64 = 1_500;
const REPLICAS: usize = 3;

/// The first `k` distinct member servers at or after `key`'s position,
/// by a linear scan over the points (no binary search).
fn brute_force(ring: &HashRing, key: u64, k: usize, members: &[bool]) -> Vec<u32> {
    let pos = ring.key_position(key);
    let points = ring.points();
    let start = points.iter().position(|&(p, _)| p >= pos).unwrap_or(0);
    let mut out = Vec::new();
    for &(_, s) in points[start..].iter().chain(&points[..start]) {
        if members[s as usize] && !out.contains(&s) {
            out.push(s);
            if out.len() == k {
                break;
            }
        }
    }
    out
}

fn owner(ring: &HashRing, key: u64, members: &[bool]) -> u32 {
    let mut out = Vec::new();
    ring.live_replicas(key, 1, members, &mut out);
    out[0]
}

/// One random join or leave, keeping at least 4 servers alive; returns
/// the churned server and whether it joined.
fn step(rng: &mut SmallRng, members: &mut [bool], live: &mut u32) -> (u32, bool) {
    let down: Vec<u32> = (0..N).filter(|&s| !members[s as usize]).collect();
    let join = !down.is_empty() && (*live <= 4 || rng.gen_bool(0.5));
    let s = if join {
        down[rng.gen_range(0..down.len())]
    } else {
        let ups: Vec<u32> = (0..N).filter(|&s| members[s as usize]).collect();
        ups[rng.gen_range(0..ups.len())]
    };
    members[s as usize] = join;
    if join {
        *live += 1;
    } else {
        *live -= 1;
    }
    (s, join)
}

#[test]
fn any_interleaving_matches_rebuilt_ring() {
    let ring = HashRing::new(N, VNODES, SALT);
    let mut reps = Vec::new();
    for trial in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(40 + trial);
        let mut members = vec![true; N as usize];
        let mut live = N;
        for step_no in 0..40 {
            step(&mut rng, &mut members, &mut live);
            for key in 0..ORACLE_KEYS {
                let expect = brute_force(&ring, key, REPLICAS, &members);
                ring.live_replicas(key, REPLICAS, &members, &mut reps);
                assert_eq!(
                    reps, expect,
                    "trial {trial} step {step_no}: replica set of key {key}"
                );
            }
        }
    }
}

#[test]
fn each_step_moves_only_keys_touching_the_churned_server() {
    let ring = HashRing::new(N, VNODES, SALT);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut members = vec![true; N as usize];
    let mut live = N;
    let mut owners: Vec<u32> = (0..KEYS).map(|key| ring.lookup(key)).collect();
    for step_no in 0..60 {
        let live_before = live;
        let (churned, join) = step(&mut rng, &mut members, &mut live);
        let mut moved = 0u64;
        for key in 0..KEYS {
            let before = owners[key as usize];
            let after = owner(&ring, key, &members);
            if before == after {
                continue;
            }
            moved += 1;
            if join {
                assert_eq!(
                    after, churned,
                    "step {step_no}: key {key} moved to a bystander"
                );
            } else {
                assert_eq!(
                    before, churned,
                    "step {step_no}: key {key} moved although its owner survived"
                );
            }
            owners[key as usize] = after;
        }
        // Quantitative minimal disruption: ≈ 1/(live servers after a
        // join, live before a leave) of keys move; allow wide MC slack.
        let pool = if join { live } else { live_before } as f64;
        let frac = moved as f64 / KEYS as f64;
        assert!(
            frac < 4.0 / pool,
            "step {step_no}: moved fraction {frac:.4} ≫ 1/{pool}"
        );
    }
}
