//! The default backend: the paper's K-topic hazard-product embeddings.
//!
//! [`EmbeddingBackend`] wraps a fitted [`Embeddings`] matrix pair. The
//! rate is linear in the influence rows, so the candidate scan does what
//! the paper's gradients do (eq. 12's `H(v) = Σ_{l≺v} A_l`): it sums the
//! infected rows once per request — `H`, the first row copied and the
//! rest added in ascending node order, topic by topic — and scores each
//! candidate `⟨H, B_v⟩`, O((|infected| + n)·K) instead of
//! O(|infected|·n·K). The order is fixed, so shard rankings tile the
//! single-box ranking bit for bit, and one infected node `u` scores
//! exactly `rate(u, v)` (a serve integration test pins both to an inline
//! oracle, byte for byte on the wire).
//!
//! Updates run [`viralcast_embed::refit`], the same warm refit as the
//! facade's `update_embeddings`: SLPA communities on the fresh batch's
//! co-occurrence graph, then warm-started hierarchical projected
//! gradient ascent over the new cascades only, under the pipeline's
//! default options (including the L1 shrinkage) with the topic count
//! pinned by the wrapped embeddings — so a daemon retrains the same way
//! `viralcast infer` fits. A refit that holds a non-finite entry is an
//! `Err`, never a model: with one `H` per request a single NaN
//! influence row would turn whole rankings NaN.

use std::any::Any;
use std::sync::Arc;

use viralcast_embed::{refit, Embeddings, InferOptions};
use viralcast_graph::NodeId;
use viralcast_propagation::CascadeSet;

use crate::scan::score_rows;
use crate::{check_finite, top_k, CascadeModel, RowBlock};

/// The paper's embedding model behind the [`CascadeModel`] trait.
#[derive(Clone, Debug)]
pub struct EmbeddingBackend {
    embeddings: Embeddings,
}

impl EmbeddingBackend {
    /// The backend id recorded in manifests.
    pub const ID: &'static str = "embed";

    /// Wraps fitted embeddings.
    pub fn new(embeddings: Embeddings) -> EmbeddingBackend {
        EmbeddingBackend { embeddings }
    }

    /// The wrapped embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.embeddings
    }

    /// Decodes the checkpoint payload written by `encode`: the legacy
    /// embeddings layout `[u32 LE n][u32 LE k]` followed by `n·k`
    /// influence and `n·k` selectivity entries as `u64 LE` f64 bits.
    /// Checkpoints written before the backend split decode unchanged —
    /// their manifests carry no backend key and default to `"embed"`.
    ///
    /// # Errors
    /// A description of the shape or length violation; a payload that
    /// declares zero topics is refused (no fit produces one).
    pub fn decode(payload: &[u8]) -> Result<EmbeddingBackend, String> {
        if payload.len() < 8 {
            return Err("checkpoint payload shorter than its shape header".into());
        }
        let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let k = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
        if k == 0 {
            return Err(format!("shape {n}x0 declares no topics"));
        }
        let body = &payload[8..];
        let cells = n
            .checked_mul(k)
            .filter(|&c| c.checked_mul(16) == Some(body.len()))
            .ok_or_else(|| format!("shape {n}x{k} disagrees with {} body bytes", body.len()))?;
        let read = |entries: &[u8]| -> Vec<f64> {
            entries
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect()
        };
        Ok(EmbeddingBackend::new(Embeddings::from_matrices(
            n,
            k,
            read(&body[..8 * cells]),
            read(&body[8 * cells..]),
        )))
    }
}

impl CascadeModel for EmbeddingBackend {
    fn backend_id(&self) -> &'static str {
        Self::ID
    }

    fn node_count(&self) -> usize {
        self.embeddings.node_count()
    }

    fn topic_count(&self) -> usize {
        self.embeddings.topic_count()
    }

    fn hazard(&self, u: NodeId, v: NodeId) -> f64 {
        self.embeddings.rate(u, v)
    }

    fn rank_candidates(
        &self,
        infected: &[NodeId],
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Vec<(NodeId, f64)> {
        let emb = &self.embeddings;
        let mut h = vec![0.0; emb.topic_count()];
        if let Some((&first, rest)) = infected.split_first() {
            h.copy_from_slice(emb.influence(first));
            for &u in rest {
                for (sum, a) in h.iter_mut().zip(emb.influence(u)) {
                    *sum += a;
                }
            }
        }
        let b = emb.selectivity_matrix();
        let score = |rows: &[NodeId], out: &mut [f64]| score_rows(&h, b, rows, out);
        top_k(emb.node_count(), top, infected, owned, h.len(), score)
    }

    fn influencers(
        &self,
        topic: Option<usize>,
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Result<Vec<(NodeId, f64)>, String> {
        let emb = &self.embeddings;
        if let Some(t) = topic {
            if t >= emb.topic_count() {
                return Err(format!(
                    "topic {t} out of range (model has {} topics)",
                    emb.topic_count()
                ));
            }
        }
        // A topic's score reads one entry, a norm the whole row.
        let width = topic.map_or(emb.topic_count(), |_| 1);
        let score = |rows: &[NodeId], out: &mut [f64]| {
            for (score, &u) in out.iter_mut().zip(rows) {
                let row = emb.influence(u);
                *score = match topic {
                    Some(t) => row[t],
                    None => row.iter().map(|x| x * x).sum::<f64>().sqrt(),
                };
            }
        };
        Ok(top_k(emb.node_count(), top, &[], owned, width, score))
    }

    fn update(&self, fresh: &CascadeSet) -> Result<Arc<dyn CascadeModel>, String> {
        let options = InferOptions {
            topics: self.embeddings.topic_count(),
            ..InferOptions::default()
        };
        let (_partition, updated, _report) =
            refit(&self.embeddings, fresh, &options).map_err(|e| e.to_string())?;
        let k = updated.topic_count();
        let a = updated.influence_matrix().iter().enumerate();
        let b = updated.selectivity_matrix().iter().enumerate();
        check_finite(a.chain(b).map(|(i, &x)| (i / k, x)))?;
        Ok(Arc::new(EmbeddingBackend::new(updated)))
    }

    fn encode(&self) -> Vec<u8> {
        let n = self.embeddings.node_count();
        let k = self.embeddings.topic_count();
        let mut payload = Vec::with_capacity(8 + 16 * n * k);
        payload.extend_from_slice(&(n as u32).to_le_bytes());
        payload.extend_from_slice(&(k as u32).to_le_bytes());
        for &x in self.embeddings.influence_matrix() {
            payload.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for &x in self.embeddings.selectivity_matrix() {
            payload.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        payload
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_propagation::{Cascade, Infection};

    fn backend() -> EmbeddingBackend {
        // Same fixture as the serve api tests: 3 nodes × 2 topics,
        // rate(0,1) = 2, node 2 all-zero.
        EmbeddingBackend::new(Embeddings::from_matrices(
            3,
            2,
            vec![1.0, 2.0, 0.5, 0.5, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ))
    }

    #[test]
    fn hazard_matches_the_wrapped_rate() {
        let b = backend();
        assert_eq!(b.hazard(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(b.hazard(NodeId(0), NodeId(2)), 0.0);
        assert_eq!(b.backend_id(), "embed");
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.topic_count(), 2);
    }

    #[test]
    fn rank_candidates_excludes_the_infected_set() {
        let b = backend();
        let ranked = b.rank_candidates(&[NodeId(0)], 5, None);
        assert_eq!(ranked, vec![(NodeId(1), 2.0), (NodeId(2), 0.0)]);
    }

    #[test]
    fn influencers_score_norms_and_topics() {
        let b = backend();
        let global = b.influencers(None, 3, None).unwrap();
        assert_eq!(global[0].0, NodeId(0));
        assert!((global[0].1 - 5.0f64.sqrt()).abs() < 1e-12);
        let topic = b.influencers(Some(1), 1, None).unwrap();
        assert_eq!(topic, vec![(NodeId(0), 2.0)]);
        let err = b.influencers(Some(9), 1, None).unwrap_err();
        assert_eq!(err, "topic 9 out of range (model has 2 topics)");
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let b = backend();
        let back = EmbeddingBackend::decode(&b.encode()).unwrap();
        assert_eq!(
            back.embeddings().influence_matrix(),
            b.embeddings().influence_matrix()
        );
        assert_eq!(
            back.embeddings().selectivity_matrix(),
            b.embeddings().selectivity_matrix()
        );
    }

    /// A zero-topic payload is refused; a zero-width backend built in
    /// code still answers, every score the empty sum.
    #[test]
    fn zero_topics_are_refused_by_decode_and_scored_empty_in_code() {
        let mut header = Vec::new();
        header.extend_from_slice(&3u32.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let err = EmbeddingBackend::decode(&header).unwrap_err();
        assert_eq!(err, "shape 3x0 declares no topics");
        let empty = EmbeddingBackend::new(Embeddings::from_matrices(3, 0, vec![], vec![]));
        let zero = (-0.0f64).to_bits();
        let ranked = empty.rank_candidates(&[NodeId(1)], 5, None);
        assert_eq!(
            ranked
                .iter()
                .map(|&(v, s)| (v.0, s.to_bits()))
                .collect::<Vec<_>>(),
            vec![(0, zero), (2, zero)]
        );
        let global = empty.influencers(None, 5, None).unwrap();
        assert_eq!(global.len(), 3);
        assert!(global.iter().all(|&(_, s)| s.to_bits() == zero));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(EmbeddingBackend::decode(&[0u8; 4]).is_err());
        let mut lied = Vec::new();
        lied.extend_from_slice(&9u32.to_le_bytes());
        lied.extend_from_slice(&1u32.to_le_bytes());
        lied.extend_from_slice(&[0u8; 16]);
        assert!(EmbeddingBackend::decode(&lied)
            .unwrap_err()
            .contains("disagrees"));
    }

    #[test]
    fn update_rejects_a_foreign_universe() {
        let b = backend();
        let err = b.update(&CascadeSet::new(5, Vec::new())).unwrap_err();
        assert_eq!(err, "embedding rows (3) and corpus universe (5) differ");
    }

    #[test]
    fn update_refuses_a_non_finite_refit() {
        // A NaN influence entry on node 1 survives the warm refit (the
        // projection clamps, and a clamped NaN is still NaN).
        let poisoned = EmbeddingBackend::new(Embeddings::from_matrices(
            3,
            2,
            vec![1.0, 2.0, f64::NAN, 0.5, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ));
        let fresh = CascadeSet::new(
            3,
            vec![Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 0.4)]).unwrap()],
        );
        let err = poisoned.update(&fresh).unwrap_err();
        assert!(err.contains("non-finite parameter at row 1"), "{err}");
        assert!(
            backend().update(&fresh).is_ok(),
            "finite refits still publish"
        );
    }
}
