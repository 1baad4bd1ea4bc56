//! The consistent-hash ring (Karger et al., STOC 1997 — the paper's \[30\]).
//!
//! Servers own `V` *virtual nodes* each, hashed onto the `u64` ring; a key
//! is served by the server owning the first virtual node at or after the
//! key's hash (wrapping). Virtual nodes smooth the per-server arc length
//! to `Θ(1/n)` with relative deviation `O(1/√V)`, and membership changes
//! move only the keys in the arcs adjacent to the joining/leaving server —
//! the *minimal disruption* property that motivates DHTs for cache
//! networks.
//!
//! The ring is built once for servers `0..n` and never edited. Membership
//! is a *live mask* handed to each query (`alive[s]`: is server `s` on the
//! ring right now?), and the `live_*` queries skip the points of servers
//! that are not alive. A join or leave therefore costs the ring nothing,
//! and what a query sees depends only on the mask, never on the order of
//! the joins and leaves that produced it.

use paba_util::{mix64, mix_seed};

/// A consistent-hash ring over servers `0..n` with `V` virtual nodes each.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// All `n·V` `(position, server)` pairs, sorted. A 64-bit hash
    /// collision keeps both points, ordered by server id, so a shared
    /// position belongs to the smaller *live* server id.
    points: Vec<(u64, u32)>,
    /// Bucket index over `points`: `starts[b]` is the first point at or
    /// after position `b << shift`, for `2^(64 − shift)` buckets of four
    /// to eight points on average, plus a closing `len`. A successor search reads
    /// one bucket instead of binary-searching the whole ring.
    starts: Vec<u32>,
    shift: u32,
    vnodes: u32,
    salt: u64,
}

impl HashRing {
    /// Build a ring for servers `0..n` with `vnodes` virtual nodes each.
    /// `salt` varies the whole layout (e.g. per-experiment).
    ///
    /// # Panics
    /// If `n == 0` or `vnodes == 0`.
    pub fn new(n: u32, vnodes: u32, salt: u64) -> Self {
        assert!(n > 0, "ring needs at least one server");
        assert!(vnodes > 0, "need at least one virtual node per server");
        let mut points = Vec::with_capacity(n as usize * vnodes as usize);
        for server in 0..n {
            for v in 0..vnodes {
                points.push((Self::vnode_hash(server, v, salt), server));
            }
        }
        points.sort_unstable();
        let len = u32::try_from(points.len()).expect("ring points fit in u32");
        let bits = len.next_power_of_two().trailing_zeros().saturating_sub(3);
        let shift = 64 - bits;
        let mut starts = Vec::with_capacity((1 << bits) + 1);
        let mut i = 0;
        for b in 0..1u64 << bits {
            let from = b.checked_shl(shift).unwrap_or(0);
            while i < points.len() && points[i].0 < from {
                i += 1;
            }
            starts.push(i as u32);
        }
        starts.push(len);
        Self {
            points,
            starts,
            shift,
            vnodes,
            salt,
        }
    }

    #[inline]
    fn vnode_hash(server: u32, vnode: u32, salt: u64) -> u64 {
        mix_seed(salt, ((server as u64) << 32) | vnode as u64)
    }

    /// Hash an arbitrary key onto the ring.
    #[inline]
    pub fn key_position(&self, key: u64) -> u64 {
        mix64(key ^ self.salt.rotate_left(17))
    }

    /// Every virtual node as a sorted `(position, server)` pair.
    pub fn points(&self) -> &[(u64, u32)] {
        &self.points
    }

    /// Index of the first point at or after position `pos` (`len` if
    /// none), searched within `pos`'s bucket.
    #[inline]
    fn first_at_or_after(&self, pos: u64) -> usize {
        let b = pos.checked_shr(self.shift).unwrap_or(0) as usize;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        lo + self.points[lo..hi].partition_point(|&(p, _)| p < pos)
    }

    /// Index of the first point at or after `key`'s position (wrapping).
    #[inline]
    fn successor(&self, key: u64) -> usize {
        let idx = self.first_at_or_after(self.key_position(key));
        if idx == self.points.len() {
            0
        } else {
            idx
        }
    }

    /// The server owning `key` with every server alive: the successor
    /// virtual node of the key's ring position (wrapping past the top of
    /// the key space).
    pub fn lookup(&self, key: u64) -> u32 {
        self.points[self.successor(key)].1
    }

    /// The first `k` *distinct* servers at or after `key`'s position, with
    /// every server alive — the replica set in successor-list replication
    /// (the paper's \[29\]). Returns fewer than `k` only if the ring has
    /// fewer servers.
    pub fn lookup_replicas(&self, key: u64, k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k);
        self.replicas_where(key, k, |_| true, &mut out);
        out
    }

    /// [`HashRing::lookup_replicas`] on the ring of the servers `s` with
    /// `alive[s]`, written into `out` (cleared first). Fewer than `k` only
    /// if fewer than `k` servers are alive; `out[0]` is the live owner.
    pub fn live_replicas(&self, key: u64, k: usize, alive: &[bool], out: &mut Vec<u32>) {
        self.replicas_where(key, k, |s| alive[s as usize], out);
    }

    fn replicas_where(&self, key: u64, k: usize, live: impl Fn(u32) -> bool, out: &mut Vec<u32>) {
        out.clear();
        if k == 0 {
            return;
        }
        let start = self.successor(key);
        let (before, after) = self.points.split_at(start);
        for &(_, server) in after.iter().chain(before) {
            if live(server) && !out.contains(&server) {
                out.push(server);
                if out.len() == k {
                    return;
                }
            }
        }
    }

    /// The key-position arcs whose [`HashRing::live_replicas`] set of size
    /// `k` includes `server` (which must be alive in `alive`): one arc per
    /// virtual node of `server`, reaching back from it until `k` distinct
    /// other live servers (or another point of `server`) lie in between.
    /// These are exactly the keys `server` takes over when it joins.
    ///
    /// An arc `(from, to)` holds the positions `p` with `from < p ≤ to`,
    /// wrapping past the top of the key space when `from ≥ to`; so
    /// `from == to` is the whole ring. Only at a 64-bit position
    /// collision can an arc cover more keys than that set, never fewer.
    /// Cost: `V` bucket lookups plus the walks, `O(V·k)` expected when
    /// few servers are down.
    pub fn live_arcs(&self, server: u32, k: usize, alive: &[bool]) -> Vec<(u64, u64)> {
        let len = self.points.len();
        let mut arcs = Vec::with_capacity(self.vnodes as usize);
        if k == 0 {
            return arcs;
        }
        let mut seen: Vec<u32> = Vec::with_capacity(k);
        for v in 0..self.vnodes {
            let point = (Self::vnode_hash(server, v, self.salt), server);
            let mut end = self.first_at_or_after(point.0);
            while self.points[end] != point {
                end += 1; // past a hash collision with a smaller server id
            }
            seen.clear();
            let mut i = end;
            loop {
                i = if i == 0 { len - 1 } else { i - 1 };
                if i == end {
                    // Fewer than `k` other live servers: every key.
                    return vec![(point.0, point.0)];
                }
                let (pos, s) = self.points[i];
                if s == server {
                    arcs.push((pos, point.0));
                    break;
                }
                if alive[s as usize] && !seen.contains(&s) {
                    seen.push(s);
                    if seen.len() == k {
                        arcs.push((pos, point.0));
                        break;
                    }
                }
            }
        }
        arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let ring = HashRing::new(16, 32, 7);
        for key in 0..1000u64 {
            let a = ring.lookup(key);
            assert_eq!(a, ring.lookup(key));
            assert!(a < 16);
        }
    }

    #[test]
    fn replicas_are_distinct_and_lead_with_owner() {
        let ring = HashRing::new(10, 16, 3);
        for key in 0..200u64 {
            let reps = ring.lookup_replicas(key, 4);
            assert_eq!(reps.len(), 4);
            assert_eq!(reps[0], ring.lookup(key), "first replica is the owner");
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "replicas must be distinct");
        }
    }

    #[test]
    fn replicas_capped_by_server_count() {
        let ring = HashRing::new(3, 8, 1);
        let reps = ring.lookup_replicas(42, 10);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn keys_spread_evenly_with_many_vnodes() {
        let n = 20u32;
        let ring = HashRing::new(n, 128, 11);
        let mut counts = vec![0u32; n as usize];
        let keys = 40_000u64;
        for key in 0..keys {
            counts[ring.lookup(key) as usize] += 1;
        }
        let expect = keys as f64 / n as f64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.55 * expect && (c as f64) < 1.6 * expect,
                "server {s} owns {c} keys vs expected {expect} — imbalance too high"
            );
        }
    }

    #[test]
    fn fewer_vnodes_means_worse_balance() {
        let n = 20u32;
        let spread = |vnodes: u32| -> f64 {
            let ring = HashRing::new(n, vnodes, 5);
            let mut counts = vec![0u32; n as usize];
            for key in 0..20_000u64 {
                counts[ring.lookup(key) as usize] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            max / min.max(1.0)
        };
        assert!(spread(1) > spread(256), "vnodes must smooth the ring");
    }

    #[test]
    fn bucket_search_matches_binary_search() {
        for (n, vnodes) in [(1, 1), (3, 2), (7, 5), (40, 64)] {
            let ring = HashRing::new(n, vnodes, 3);
            let edges = [0, 1, u64::MAX - 1, u64::MAX, 1 << 63, (1 << 63) - 1];
            let at_points = ring
                .points
                .iter()
                .flat_map(|&(p, _)| [p, p.wrapping_add(1), p.wrapping_sub(1)]);
            let hashed = (0..2_000u64).map(|key| ring.key_position(key));
            for pos in edges.into_iter().chain(at_points).chain(hashed) {
                assert_eq!(
                    ring.first_at_or_after(pos),
                    ring.points.partition_point(|&(p, _)| p < pos),
                    "n={n} V={vnodes} pos={pos}"
                );
            }
        }
    }

    /// The live owner of `key` under `alive`.
    fn live_owner(ring: &HashRing, key: u64, alive: &[bool]) -> u32 {
        let mut out = Vec::new();
        ring.live_replicas(key, 1, alive, &mut out);
        out[0]
    }

    #[test]
    fn minimal_disruption_on_leave() {
        // Masking out one of n servers must move ≈ 1/n of keys — and
        // never reassign a key whose owner survives.
        let n = 25u32;
        let ring = HashRing::new(n, 64, 9);
        let gone = 7u32;
        let mut alive = vec![true; n as usize];
        alive[gone as usize] = false;
        let keys = 20_000u64;
        let mut moved = 0u64;
        for key in 0..keys {
            let before = ring.lookup(key);
            let after = live_owner(&ring, key, &alive);
            if before == after {
                continue;
            }
            assert_eq!(before, gone, "key moved although its owner survived");
            moved += 1;
        }
        let frac = moved as f64 / keys as f64;
        let expect = 1.0 / n as f64;
        assert!(
            frac > 0.3 * expect && frac < 3.0 * expect,
            "disruption {frac:.4} should be ≈ 1/n = {expect:.4}"
        );
    }

    #[test]
    fn minimal_disruption_on_join() {
        // Unmasking an (n+1)-th server must move ≈ 1/(n+1) of keys — and
        // every moved key must move *to* the joiner.
        let ring = HashRing::new(25, 64, 17);
        let mut alive = vec![true; 25];
        alive[24] = false;
        let before: Vec<u32> = (0..20_000u64)
            .map(|key| live_owner(&ring, key, &alive))
            .collect();
        alive[24] = true;
        let mut moved = 0u64;
        for (key, &b) in before.iter().enumerate() {
            let after = live_owner(&ring, key as u64, &alive);
            if b == after {
                continue;
            }
            assert_eq!(after, 24, "key moved to a pre-existing server");
            moved += 1;
        }
        let frac = moved as f64 / before.len() as f64;
        let expect = 1.0 / 25.0;
        assert!(
            frac > 0.3 * expect && frac < 3.0 * expect,
            "disruption {frac:.4} should be ≈ 1/(n+1) = {expect:.4}"
        );
    }

    #[test]
    fn live_arcs_hold_exactly_the_keys_a_server_replicates() {
        // Tiny rings (arcs wrap past the top) up to a few hundred points,
        // with some servers down — including fewer live than `k`.
        let mut reps = Vec::new();
        for (n, vnodes, k) in [(3, 1, 2), (4, 2, 3), (5, 1, 4), (12, 8, 3), (30, 16, 2)] {
            let ring = HashRing::new(n, vnodes, n as u64);
            for mask in 0u32..16 {
                // Server 0 is alive; bit i of `mask` takes server i+1 down.
                let alive: Vec<bool> = (0..n).map(|s| s == 0 || mask >> (s - 1) & 1 == 0).collect();
                let arcs = ring.live_arcs(0, k, &alive);
                for key in 0..2_000u64 {
                    let pos = ring.key_position(key);
                    let in_arc = arcs.iter().any(|&(from, to)| {
                        if from < to {
                            from < pos && pos <= to
                        } else {
                            from < pos || pos <= to
                        }
                    });
                    ring.live_replicas(key, k, &alive, &mut reps);
                    assert_eq!(
                        in_arc,
                        reps.contains(&0),
                        "n={n} V={vnodes} k={k} mask={mask:b} key={key}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_salts_give_different_layouts() {
        let a = HashRing::new(8, 16, 1);
        let b = HashRing::new(8, 16, 2);
        let differing = (0..500u64).filter(|&k| a.lookup(k) != b.lookup(k)).count();
        assert!(
            differing > 100,
            "salt should reshuffle the ring ({differing})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_ring_panics() {
        let _ = HashRing::new(0, 4, 0);
    }
}
