//! The consistent-hash ring that assigns request digests to shards.
//!
//! Each shard contributes `vnodes` pseudo-random points on a `u64` ring;
//! a key (the low 64 bits of a request [`Digest`](antlayer_service::Digest))
//! is owned by the shard whose point is the key's successor on the ring.
//! Virtual nodes smooth the key shares (one point per shard would make
//! shares as uneven as the gaps between N random points), and successor
//! assignment gives the property horizontal scaling depends on: **when a
//! shard is removed, only the keys it owned move** — every other key
//! keeps its shard, so a shard failure invalidates one shard's worth of
//! cache, not the whole fleet's.
//!
//! Ring points depend only on `(shard index, replica index)`, never on
//! the membership set, so failover can be expressed as a *filtered*
//! lookup over the same ring ([`HashRing::candidates`] walks the ring
//! past down shards) instead of rebuilding a smaller ring that would
//! reshuffle everything.

/// A fixed set of shards placed on a `u64` hash ring with virtual nodes.
///
/// # Examples
///
/// ```
/// use antlayer_router::HashRing;
///
/// let ring = HashRing::new(4, 64);
/// let owner = ring.owner(0xdead_beef);
/// assert!(owner < 4);
/// // Failover: skip the owner, keep everyone else's assignment intact.
/// let fallback = ring
///     .candidates(0xdead_beef)
///     .find(|&s| s != owner)
///     .unwrap();
/// assert_ne!(fallback, owner);
/// ```
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(ring point, shard index)` pairs.
    points: Vec<(u64, u32)>,
    shards: usize,
}

/// SplitMix64 finalizer: the same dependency-free avalanche the digest
/// module uses, duplicated here so the ring's placement is independent of
/// the digest encoding (bumping `DIGEST_TAG` must not reshuffle shards).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator so ring points never collide with other users of the
/// same mixer by construction of the input space.
const RING_SEED: u64 = 0x52_49_4E_47_5F_56_31_5F; // "RING_V1_"

impl HashRing {
    /// Places `shards` shards on the ring with `vnodes` points each.
    /// Both are clamped to at least 1. Point placement is deterministic:
    /// the same `(shards, vnodes)` always yields the same assignment, on
    /// every process — the router and any observer agree on ownership
    /// without coordination.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        assert!(
            shards <= u32::MAX as usize,
            "shard count exceeds the ring's id range"
        );
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards as u32 {
            for replica in 0..vnodes as u32 {
                let point = mix(RING_SEED ^ ((shard as u64) << 32) ^ replica as u64);
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        // A point collision between two shards would make ownership
        // depend on sort stability; keep the first (lower shard id) and
        // drop the rest. With 64-bit points this is astronomically rare.
        points.dedup_by_key(|&mut (p, _)| p);
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the one whose ring point is the key's
    /// successor (wrapping past the top of the `u64` space).
    pub fn owner(&self, key: u64) -> usize {
        let i = self.successor_index(key);
        self.points[i].1 as usize
    }

    /// All shards in ring order starting at the key's owner, each shard
    /// yielded once. `candidates(k).next()` is [`owner`](Self::owner);
    /// the rest is the failover order — the router tries them in turn
    /// when shards are down, so the assignment seen by live traffic is
    /// exactly "the filtered ring", which is what makes removal move
    /// only the removed shard's keys.
    pub fn candidates(&self, key: u64) -> Candidates<'_> {
        Candidates {
            ring: self,
            next: self.successor_index(key),
            yielded: vec![false; self.shards],
            remaining: self.shards,
        }
    }

    /// Index into `points` of the key's successor point.
    fn successor_index(&self, key: u64) -> usize {
        match self.points.binary_search(&(key, 0)) {
            Ok(i) => i,
            Err(i) => {
                if i == self.points.len() {
                    0 // wrap around
                } else {
                    i
                }
            }
        }
    }
}

/// Iterator over distinct shards in ring order; see
/// [`HashRing::candidates`].
pub struct Candidates<'a> {
    ring: &'a HashRing,
    next: usize,
    yielded: Vec<bool>,
    remaining: usize,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.remaining > 0 {
            let (_, shard) = self.ring.points[self.next];
            self.next = (self.next + 1) % self.ring.points.len();
            let shard = shard as usize;
            if !self.yielded[shard] {
                self.yielded[shard] = true;
                self.remaining -= 1;
                return Some(shard);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic key stream with well-spread bits (the real keys are
    /// `Digest.lo`, which is avalanche output).
    fn keys(count: u64) -> impl Iterator<Item = u64> {
        (0..count).map(|i| mix(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5))
    }

    #[test]
    fn assignment_is_deterministic_across_instances() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for k in keys(1000) {
            assert_eq!(a.owner(k), b.owner(k));
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1, 16);
        for k in keys(100) {
            assert_eq!(ring.owner(k), 0);
        }
    }

    #[test]
    fn candidates_enumerate_every_shard_exactly_once() {
        let ring = HashRing::new(5, 32);
        for k in keys(50) {
            let order: Vec<usize> = ring.candidates(k).collect();
            assert_eq!(order.len(), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(order[0], ring.owner(k));
        }
    }

    #[test]
    fn virtual_nodes_balance_key_shares() {
        // The balance bound the router relies on: with 128 vnodes no
        // shard's share strays past 0.75x–1.35x of fair, so one shard
        // cannot silently become the whole fleet's cache.
        for shards in [2usize, 4, 8] {
            let ring = HashRing::new(shards, 128);
            let mut counts = vec![0u64; shards];
            let total = 200_000u64;
            for k in keys(total) {
                counts[ring.owner(k)] += 1;
            }
            let fair = total as f64 / shards as f64;
            for (shard, &c) in counts.iter().enumerate() {
                let share = c as f64 / fair;
                assert!(
                    (0.75..=1.35).contains(&share),
                    "shard {shard}/{shards}: share {share:.3} out of bounds"
                );
            }
        }
    }

    #[test]
    fn fewer_vnodes_mean_worse_balance() {
        // Sanity that the vnode knob does what the docs claim: the
        // max/min spread with 1 vnode is wider than with 128.
        let spread = |vnodes: usize| {
            let ring = HashRing::new(4, vnodes);
            let mut counts = [0u64; 4];
            for k in keys(100_000) {
                counts[ring.owner(k)] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap().max(&1) as f64;
            max / min
        };
        assert!(spread(1) > spread(128));
    }

    #[test]
    fn removal_moves_only_the_removed_shards_keys() {
        // The consistent-hashing property, phrased the way the router
        // uses it: skipping a down shard in candidate order reassigns
        // only that shard's keys.
        let ring = HashRing::new(6, 64);
        for removed in 0..6 {
            for k in keys(2000) {
                let owner = ring.owner(k);
                let filtered = ring.candidates(k).find(|&s| s != removed).unwrap();
                if owner != removed {
                    assert_eq!(owner, filtered, "key {k} moved without cause");
                }
            }
        }
    }
}
