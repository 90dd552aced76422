//! Streaming top-k merge of shard-local rankings.
//!
//! Every shard returns its candidates already sorted by the serve
//! layer's exact comparator ([`rank_order`]: score descending, node id
//! ascending, non-finite scores in IEEE total order) — so the router
//! only ever inspects the head of each list: a k-way streaming merge
//! that stops after `k` picks instead of concatenating and re-sorting
//! whole responses. Because row blocks are disjoint, the
//! merged prefix is *exactly* the single-box ranking; duplicate node
//! ids (possible only with an inconsistent manifest) are deduplicated
//! keeping the best-ranked entry so a misconfiguration degrades instead
//! of double-reporting.

use viralcast_model::rank_order;
use viralcast_obs::JsonValue;

/// One ranked entry as a shard reported it. `body` is the shard's
/// rendered candidate object, kept verbatim so the merged response is
/// byte-identical to what a single box would emit.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked {
    /// Node id.
    pub node: u64,
    /// Ranking score (a predict rate or an influencer score).
    pub score: f64,
    /// The shard's original JSON object for this entry.
    pub body: JsonValue,
}

impl Ranked {
    /// A payload-free entry (tests and size estimates).
    pub fn bare(node: u64, score: f64) -> Ranked {
        Ranked {
            node,
            score,
            body: JsonValue::Null,
        }
    }
}

/// Whether `a` ranks strictly before `b` under the serve layer's order.
fn ranks_before(a: &Ranked, b: &Ranked) -> bool {
    rank_order(&(a.node, a.score), &(b.node, b.score)).is_lt()
}

/// Merges per-shard rankings (each sorted by score desc, node asc) into
/// the global top `k`, streaming from the list heads. Duplicate node
/// ids keep their best-ranked occurrence.
pub fn merge_topk(lists: &[Vec<Ranked>], k: usize) -> Vec<Ranked> {
    let mut heads = vec![0usize; lists.len()];
    let mut out: Vec<Ranked> = Vec::with_capacity(k.min(64));
    let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    while out.len() < k {
        // The best remaining entry sits at one of the list heads.
        let mut best: Option<usize> = None;
        for (i, list) in lists.iter().enumerate() {
            let Some(candidate) = list.get(heads[i]) else {
                continue;
            };
            match best {
                Some(b) if !ranks_before(candidate, list_head(lists, &heads, b)) => {}
                _ => best = Some(i),
            }
        }
        let Some(i) = best else {
            break; // every list exhausted
        };
        let entry = lists[i][heads[i]].clone();
        heads[i] += 1;
        if seen.insert(entry.node) {
            out.push(entry);
        }
    }
    out
}

fn list_head<'a>(lists: &'a [Vec<Ranked>], heads: &[usize], i: usize) -> &'a Ranked {
    &lists[i][heads[i]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_graph::NodeId;

    /// The reference ranking: sort everything, keep the first `top`.
    fn sorted_prefix(mut scored: Vec<(NodeId, f64)>, top: usize) -> Vec<(NodeId, f64)> {
        scored.sort_by(rank_order);
        scored.truncate(top);
        scored
    }

    /// xorshift64* — a tiny deterministic generator for the property
    /// test (this crate has no `rand` dependency).
    struct Rng(u64);
    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.max(1))
        }
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Property: splitting a ranking across disjoint shards and merging
    /// the per-shard rankings reproduces the single-box top-k exactly —
    /// the full sort of the concatenation, truncated — with ties, NaN and
    /// ±∞ among the scores.
    #[test]
    fn merging_disjoint_shards_equals_the_single_box_ranking() {
        for seed in 1..=50u64 {
            let mut rng = Rng::new(seed);
            let nodes = 1 + (rng.next() % 40) as usize;
            let shards = 1 + (rng.next() % 5) as usize;
            let k = (rng.next() % 12) as usize;
            // A random score per node: mostly quantised (so ties occur),
            // one in five non-finite.
            let all: Vec<(NodeId, f64)> = (0..nodes as u32)
                .map(|v| {
                    let score = match rng.next() % 15 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => (rng.f64() * 4.0).floor() / 4.0,
                    };
                    (NodeId(v), score)
                })
                .collect();
            // Disjoint split: node v on shard v % shards (any disjoint
            // assignment works; this one is easy to reason about), each
            // shard ranking its own rows as a daemon would.
            let per_shard: Vec<Vec<Ranked>> = (0..shards)
                .map(|shard| {
                    let owned = all
                        .iter()
                        .filter(|(v, _)| v.index() % shards == shard)
                        .copied()
                        .collect();
                    sorted_prefix(owned, nodes)
                        .into_iter()
                        .map(|(v, score)| Ranked::bare(u64::from(v.0), score))
                        .collect()
                })
                .collect();
            // NaN != NaN, so compare scores by bit pattern.
            let merged: Vec<(u64, u64)> = merge_topk(&per_shard, k)
                .iter()
                .map(|r| (r.node, r.score.to_bits()))
                .collect();
            let single_box: Vec<(u64, u64)> = sorted_prefix(all, k)
                .iter()
                .map(|(v, score)| (u64::from(v.0), score.to_bits()))
                .collect();
            assert_eq!(merged, single_box, "seed {seed}: shards {shards}, k {k}");
        }
    }

    #[test]
    fn empty_shards_are_harmless() {
        let full = vec![Ranked::bare(0, 1.0), Ranked::bare(2, 0.5)];
        let merged = merge_topk(&[Vec::new(), full.clone(), Vec::new()], 10);
        assert_eq!(merged, full);
        assert!(merge_topk(&[], 5).is_empty());
        assert!(merge_topk(&[Vec::new()], 5).is_empty());
        assert!(merge_topk(&[full], 0).is_empty());
    }

    #[test]
    fn duplicate_sites_keep_the_best_ranked_entry() {
        // Node 7 reported by two shards (an inconsistent manifest): the
        // higher-scored occurrence wins, the duplicate is dropped, and
        // later entries still flow through.
        let a = vec![Ranked::bare(7, 0.9), Ranked::bare(1, 0.2)];
        let b = vec![Ranked::bare(7, 0.4), Ranked::bare(3, 0.3)];
        let merged = merge_topk(&[a, b], 10);
        let nodes: Vec<u64> = merged.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![7, 3, 1]);
        assert_eq!(merged[0].score, 0.9);
    }

    #[test]
    fn ties_break_by_node_id() {
        let a = vec![Ranked::bare(5, 1.0)];
        let b = vec![Ranked::bare(2, 1.0)];
        let merged = merge_topk(&[a, b], 2);
        let nodes: Vec<u64> = merged.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![2, 5]);
    }

    #[test]
    fn truncates_to_k() {
        let lists: Vec<Vec<Ranked>> = (0..3)
            .map(|s| {
                (0..10)
                    .map(|i| Ranked::bare(s * 10 + i, 1.0 / (i + 1) as f64))
                    .collect()
            })
            .collect();
        assert_eq!(merge_topk(&lists, 4).len(), 4);
    }
}
