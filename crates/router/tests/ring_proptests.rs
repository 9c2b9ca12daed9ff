//! Property-based tests of the consistent-hash ring: the stability and
//! balance guarantees the sharded deployment is built on.

use antlayer_router::HashRing;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The consistent-hashing contract: removing one shard (expressed
    // the way the router expresses it — skipping it in candidate
    // order) moves only the keys that shard owned. Every other key
    // keeps its assignment.
    #[test]
    fn removal_moves_only_the_removed_shards_keys(
        shards in 2usize..9,
        vnodes in 1usize..129,
        removed_raw in 0usize..9,
        keys in proptest::collection::vec(0u64..u64::MAX, 64..65),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let removed = removed_raw % shards;
        for key in keys {
            let owner = ring.owner(key);
            let filtered = ring
                .candidates(key)
                .find(|&s| s != removed)
                .expect("at least one shard survives");
            if owner == removed {
                prop_assert!(filtered != removed, "key {} still on the removed shard", key);
            } else {
                prop_assert_eq!(owner, filtered, "key {} moved without cause", key);
            }
        }
    }

    // The join direction of the same contract (what live resharding
    // leans on): growing the ring from N to N+1 shards moves only the
    // keys the new shard now owns. Every other digest keeps its owner
    // *and* its whole candidate order — so replication sets of any size
    // are unchanged — because ring points are a pure function of
    // (shard index, replica), never of membership: the N-ring's points
    // are a subset of the (N+1)-ring's.
    #[test]
    fn join_moves_only_the_new_shards_keys(
        shards in 1usize..9,
        vnodes in 1usize..129,
        keys in proptest::collection::vec(0u64..u64::MAX, 64..65),
    ) {
        let before = HashRing::new(shards, vnodes);
        let after = HashRing::new(shards + 1, vnodes);
        let joined = shards; // a join always appends the next slot index
        for key in keys {
            let new_owner = after.owner(key);
            if new_owner != joined {
                prop_assert_eq!(
                    before.owner(key), new_owner,
                    "key {} moved without the new shard owning it", key
                );
            } else {
                // A moved key's *old* owner is the post-join ring's next
                // candidate past the new shard — which is where reads go
                // while the transfer cursor has not passed the digest.
                let fallback = after
                    .candidates(key)
                    .find(|&s| s != joined)
                    .expect("an old shard remains");
                prop_assert_eq!(before.owner(key), fallback);
            }
            // Candidate order filtered of the new shard is the old order
            // exactly: every replication set (any R) is unchanged.
            let old_order: Vec<usize> = before.candidates(key).collect();
            let filtered: Vec<usize> =
                after.candidates(key).filter(|&s| s != joined).collect();
            prop_assert_eq!(old_order, filtered);
        }
    }

    // Double removal composes the same way: keys owned by neither
    // removed shard never move.
    #[test]
    fn two_removals_still_strand_no_unrelated_keys(
        shards in 3usize..9,
        vnodes in 8usize..65,
        keys in proptest::collection::vec(0u64..u64::MAX, 64..65),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let (a, b) = (0usize, 1usize);
        for key in keys {
            let owner = ring.owner(key);
            let filtered = ring
                .candidates(key)
                .find(|&s| s != a && s != b)
                .expect("a third shard survives");
            if owner != a && owner != b {
                prop_assert_eq!(owner, filtered);
            }
        }
    }

    // The replication contract: a digest's replication set is its first
    // R ring candidates (owner + next R-1, all distinct). Marking one
    // shard down (expressed the way the router expresses it — filtering
    // it out of candidate order) changes the set by at most replacing
    // the downed member: every surviving member keeps its slot's order,
    // the downed shard never appears, and at most one new shard joins.
    // This is what bounds re-replication traffic to the dead shard's
    // entries.
    #[test]
    fn marking_a_shard_down_changes_each_replication_set_by_at_most_one(
        shards in 3usize..9,
        vnodes in 8usize..65,
        replicas_raw in 2usize..9,
        down_raw in 0usize..9,
        keys in proptest::collection::vec(0u64..u64::MAX, 64..65),
    ) {
        let ring = HashRing::new(shards, vnodes);
        // R <= shards - 1 keeps the filtered set fully formable.
        let replicas = 2 + replicas_raw % (shards - 1).max(1);
        let replicas = replicas.min(shards - 1);
        let down = down_raw % shards;
        for key in keys {
            let before: Vec<usize> = ring.candidates(key).take(replicas).collect();
            let after: Vec<usize> = ring
                .candidates(key)
                .filter(|&s| s != down)
                .take(replicas)
                .collect();
            prop_assert_eq!(before.len(), replicas);
            prop_assert_eq!(after.len(), replicas);
            prop_assert!(!after.contains(&down), "down shard in set for key {}", key);
            // Survivors keep their relative order...
            let survivors: Vec<usize> =
                before.iter().copied().filter(|&s| s != down).collect();
            prop_assert_eq!(&after[..survivors.len()], &survivors[..]);
            // ...and at most one member is new.
            let gained = after.iter().filter(|s| !before.contains(s)).count();
            prop_assert!(
                gained <= 1,
                "key {}: set {:?} -> {:?} gained {} members",
                key, before, after, gained
            );
            if !before.contains(&down) {
                prop_assert_eq!(&before, &after, "unaffected set changed for key {}", key);
            }
        }
    }

    // Assignment is a pure function of (shards, vnodes, key): two
    // independently built rings always agree, which is what lets a
    // router restart (or a second router) route identically without
    // coordination.
    #[test]
    fn independently_built_rings_agree(
        shards in 1usize..9,
        vnodes in 1usize..65,
        keys in proptest::collection::vec(0u64..u64::MAX, 32..33),
    ) {
        let a = HashRing::new(shards, vnodes);
        let b = HashRing::new(shards, vnodes);
        for key in keys {
            prop_assert_eq!(a.owner(key), b.owner(key));
            prop_assert_eq!(
                a.candidates(key).collect::<Vec<_>>(),
                b.candidates(key).collect::<Vec<_>>()
            );
        }
    }

    // The candidate walk is a permutation of all shards starting at
    // the owner — failover can always find a live shard if one exists.
    #[test]
    fn candidates_are_a_permutation_starting_at_the_owner(
        shards in 1usize..9,
        vnodes in 1usize..65,
        key in 0u64..u64::MAX,
    ) {
        let ring = HashRing::new(shards, vnodes);
        let order: Vec<usize> = ring.candidates(key).collect();
        prop_assert_eq!(order.len(), shards);
        prop_assert_eq!(order[0], ring.owner(key));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
    }
}

/// Virtual-node balance, the statistical half of the contract: with the
/// router's default vnode count no shard's key share strays past
/// 0.7x–1.4x of fair. (A deterministic unit check, not a property — the
/// ring placement is a pure function, so one measurement is the
/// measurement.)
#[test]
fn default_vnodes_keep_key_shares_within_bounds() {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    for shards in [2usize, 3, 4, 8] {
        let ring = HashRing::new(shards, 64);
        let total = 100_000u64;
        let mut counts = vec![0u64; shards];
        for i in 0..total {
            counts[ring.owner(mix(i))] += 1;
        }
        let fair = total as f64 / shards as f64;
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / fair <= 1.4 && min / fair >= 0.7,
            "{shards} shards: shares {counts:?} out of bounds"
        );
    }
}
