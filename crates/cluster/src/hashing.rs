//! Rendezvous (highest-random-weight) hashing.
//!
//! `/v1/ingest` must route a cascade to the shard that owns its seed
//! site, and keep routing it there as shards come and go. Rendezvous
//! hashing scores every `(key, shard)` pair with a stateless hash and
//! picks the highest: removing a shard only moves the keys that shard
//! owned, and every process computes the same order with no shared
//! state — exactly the property a restarting router needs.

use viralcast_serve::client::splitmix64;

/// The rendezvous score of `key` on `shard`.
pub fn score(key: u64, shard: usize) -> u64 {
    splitmix64(key ^ splitmix64(shard as u64))
}

/// Shard indices `0..shards` ordered by descending rendezvous score for
/// `key` (ties broken by index, though ties are vanishingly rare). The
/// first entry is the owner; the rest are the deterministic failover
/// order a router walks when the owner is down.
pub fn rendezvous_order(key: u64, shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by(|&a, &b| score(key, b).cmp(&score(key, a)).then(a.cmp(&b)));
    order
}

/// The owning shard for `key`, if there is any shard at all.
pub fn owner(key: u64, shards: usize) -> Option<usize> {
    (0..shards).max_by(|&a, &b| score(key, a).cmp(&score(key, b)).then(b.cmp(&a)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_the_head_of_the_order() {
        for key in 0..200u64 {
            let order = rendezvous_order(key, 5);
            assert_eq!(order.len(), 5);
            assert_eq!(owner(key, 5), Some(order[0]));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "not a permutation: {order:?}");
        }
        assert_eq!(owner(7, 0), None);
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        // The defining rendezvous property: keys not owned by the
        // removed shard keep their owner among the survivors.
        for key in 0..500u64 {
            let full = owner(key, 4).unwrap();
            if full < 3 {
                // Drop shard 3: owners 0..2 must be unchanged.
                assert_eq!(owner(key, 3), Some(full), "key {key} moved");
            }
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[owner(key, 4).unwrap()] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&count),
                "shard {shard} got {count} of 4000 keys"
            );
        }
    }

    #[test]
    fn order_is_deterministic() {
        assert_eq!(rendezvous_order(42, 6), rendezvous_order(42, 6));
        assert_ne!(rendezvous_order(42, 6), rendezvous_order(43, 6));
    }
}
