//! Significant-influencer identification.
//!
//! The introduction promises "the applications of our approach in
//! identification of the significant influencers": once influence
//! vectors are inferred, the most influential nodes are simply those
//! with the largest influence mass — globally (vector norm) or on a
//! specific topic (single component). Because `A_{u,k}` is "the
//! probability that other news sites report the same event after the
//! news site u's coverage", these rankings have a direct operational
//! reading.

use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_model::{CascadeModel, EmbeddingBackend};

/// One ranked influencer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InfluencerRank {
    /// The node.
    pub node: NodeId,
    /// Its score (norm or topic component).
    pub score: f64,
}

/// The serving backend's ranking — the same scores, comparator and
/// selection `GET /v1/influencers` answers with — over a copy of
/// `embeddings` (these are offline helpers; the daemon holds its
/// backend already).
fn ranking(embeddings: &Embeddings, topic: Option<usize>, k: usize) -> Vec<InfluencerRank> {
    EmbeddingBackend::new(embeddings.clone())
        .influencers(topic, k, None)
        .expect("the topic was range-checked by the caller")
        .into_iter()
        .map(|(node, score)| InfluencerRank { node, score })
        .collect()
}

/// The `k` nodes with the largest influence-vector Euclidean norm,
/// descending; ties broken by node id. A non-finite score (a corrupt
/// row) is placed by IEEE total order — NaN first — instead of
/// panicking.
pub fn top_influencers(embeddings: &Embeddings, k: usize) -> Vec<InfluencerRank> {
    ranking(embeddings, None, k)
}

/// The `k` nodes with the largest influence on one topic, descending.
///
/// # Panics
/// Panics if `topic` is out of range.
pub fn topic_influencers(embeddings: &Embeddings, topic: usize, k: usize) -> Vec<InfluencerRank> {
    assert!(
        topic < embeddings.topic_count(),
        "topic {topic} out of range (K = {})",
        embeddings.topic_count()
    );
    ranking(embeddings, Some(topic), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embeddings() -> Embeddings {
        // 4 nodes × 2 topics; norms: n0 = 5 (3,4), n1 = 1 (1,0),
        // n2 = 2 (0,2), n3 = 0.
        Embeddings::from_matrices(
            4,
            2,
            vec![3.0, 4.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
            vec![0.0; 8],
        )
    }

    #[test]
    fn global_ranking_by_norm() {
        let top = top_influencers(&embeddings(), 3);
        let nodes: Vec<u32> = top.iter().map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![0, 2, 1]);
        assert!((top[0].score - 5.0).abs() < 1e-12);
    }

    #[test]
    fn topic_ranking_uses_single_component() {
        // Topic 0: node 0 (3.0) then node 1 (1.0).
        let top = topic_influencers(&embeddings(), 0, 2);
        assert_eq!(top[0].node, NodeId(0));
        assert_eq!(top[1].node, NodeId(1));
        // Topic 1: node 0 (4.0) then node 2 (2.0).
        let top = topic_influencers(&embeddings(), 1, 2);
        assert_eq!(top[0].node, NodeId(0));
        assert_eq!(top[1].node, NodeId(2));
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        assert_eq!(top_influencers(&embeddings(), 100).len(), 4);
    }

    #[test]
    fn ties_break_by_node_id() {
        let e = Embeddings::from_matrices(3, 1, vec![1.0, 1.0, 1.0], vec![0.0; 3]);
        let top = top_influencers(&e, 3);
        let nodes: Vec<u32> = top.iter().map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_topic_rejected() {
        topic_influencers(&embeddings(), 9, 1);
    }

    #[test]
    fn a_nan_row_is_ranked_not_a_panic() {
        let e = Embeddings::from_matrices(3, 1, vec![1.0, f64::NAN, 2.0], vec![0.0; 3]);
        for top in [top_influencers(&e, 3), topic_influencers(&e, 0, 3)] {
            let nodes: Vec<u32> = top.iter().map(|r| r.node.0).collect();
            assert_eq!(nodes, vec![1, 2, 0], "NaN first, then by score");
            assert!(top[0].score.is_nan());
        }
    }
}
