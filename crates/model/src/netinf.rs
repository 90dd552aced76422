//! NETINF-style greedy edge inference (Gomez-Rodriguez, Leskovec &
//! Krause): an interpretable, naturally sparse baseline backend.
//!
//! Instead of latent topic embeddings, [`NetInfBackend`] infers an
//! explicit diffusion graph. Under an exponential transmission model
//! with rate `alpha`, a potential edge `u → v` explains the observation
//! "`v` adopted `delay` after `u`" with log-likelihood
//! `ln(alpha) − alpha·delay`; every cascade starts with an
//! `ln(eps)` "external source" explanation per adopter. Greedy
//! selection repeatedly adds the edge with the largest marginal gain in
//! total explained log-likelihood — the classic lazy-forward objective,
//! evaluated exactly here since corpora are small — until the gain is
//! exhausted or the edge budget (`edges_per_node × nodes`) is spent.
//!
//! Serving weights are the per-edge MLE transmission rates
//! (`adoptions / Σ delays`), so [`CascadeModel::hazard`] is directly
//! comparable to the embedding backend's rate surface: candidate
//! ranking accumulates the same "sum of rates from the infected set"
//! score — once per request, in ascending source order, over a sparse
//! out-edge list — and feeds the shared selection ([`crate::top_k`])
//! under the shared comparator, so shard rankings tile identically.
//! A refit whose weights are not all finite is refused by `update`.
//!
//! Ties in the greedy selection break toward the smaller `(u, v)` pair,
//! making fits deterministic for a given corpus.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use viralcast_graph::NodeId;
use viralcast_propagation::{Cascade, CascadeSet};

use crate::{candidates, check_finite, rows, top_k, CascadeModel, RowBlock};

/// Minimum delay used for MLE rate estimation, so simultaneous
/// adoptions cannot produce an infinite rate.
const MIN_DELAY: f64 = 1e-9;

/// Fit settings for [`NetInfBackend`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetInfConfig {
    /// Edge budget as a multiple of the node count: greedy selection
    /// stops after `edges_per_node × nodes` edges (or earlier, when no
    /// candidate improves the objective).
    pub edges_per_node: usize,
    /// Exponential transmission rate of the selection objective.
    pub alpha: f64,
    /// External-source likelihood floor: every adoption starts
    /// explained at `ln(eps)`, so the first in-edge of a node has a
    /// large gain and later, worse explanations have none.
    pub eps: f64,
    /// Cascades retained for refits: [`NetInfBackend::update`] refits
    /// from the most recent `max_history` cascades (history is not
    /// checkpointed — a restarted daemon refits from post-boot batches
    /// only).
    pub max_history: usize,
}

impl Default for NetInfConfig {
    fn default() -> Self {
        NetInfConfig {
            edges_per_node: 4,
            alpha: 1.0,
            eps: 1e-6,
            max_history: 2048,
        }
    }
}

/// The greedy-inferred sparse diffusion graph behind [`CascadeModel`].
#[derive(Clone, Debug)]
pub struct NetInfBackend {
    node_count: usize,
    config: NetInfConfig,
    /// Out-edges per node, sorted by target id, with MLE rate weights.
    edges: Vec<Vec<(NodeId, f64)>>,
    /// Recent cascades kept for the next refit (capped, not persisted).
    history: Vec<Cascade>,
}

impl NetInfBackend {
    /// The backend id recorded in manifests.
    pub const ID: &'static str = "netinf";

    /// Fits the diffusion graph on a training corpus.
    pub fn fit(cascades: &CascadeSet, config: NetInfConfig) -> NetInfBackend {
        let n = cascades.node_count();
        // Candidate edges: every (earlier adopter, later adopter) pair
        // observed in some cascade, with the per-observation evidence
        // (cascade index, transmission log-likelihood, delay).
        type Evidence = Vec<(usize, f64, f64)>;
        let mut evidence: BTreeMap<(u32, u32), Evidence> = BTreeMap::new();
        for (c, cascade) in cascades.cascades().iter().enumerate() {
            let infections = cascade.infections();
            for (i, target) in infections.iter().enumerate() {
                for source in &infections[..i] {
                    let delay = (target.time - source.time).max(0.0);
                    let logp = config.alpha.ln() - config.alpha * delay;
                    evidence
                        .entry((source.node.0, target.node.0))
                        .or_default()
                        .push((c, logp, delay));
                }
            }
        }
        // best[(c, v)]: the strongest explanation selected so far for
        // v's adoption in cascade c; starts at the external source.
        let floor = config.eps.ln();
        let mut best: std::collections::HashMap<(usize, u32), f64> =
            std::collections::HashMap::new();
        let budget = config.edges_per_node.saturating_mul(n);
        let mut selected: Vec<(u32, u32)> = Vec::new();
        while selected.len() < budget {
            let mut winner: Option<((u32, u32), f64)> = None;
            for (&edge, obs) in &evidence {
                let gain: f64 = obs
                    .iter()
                    .map(|&(c, logp, _)| {
                        (logp - best.get(&(c, edge.1)).copied().unwrap_or(floor)).max(0.0)
                    })
                    .sum();
                // Strict comparison + BTreeMap order: ties break toward
                // the smaller (u, v).
                if gain > winner.map_or(0.0, |(_, g)| g) {
                    winner = Some((edge, gain));
                }
            }
            let Some((edge, _gain)) = winner else { break };
            let obs = evidence.remove(&edge).expect("winner came from the map");
            for &(c, logp, _) in &obs {
                let slot = best.entry((c, edge.1)).or_insert(floor);
                *slot = slot.max(logp);
            }
            selected.push(edge);
        }
        // Serving weight: MLE exponential rate over the observations
        // that proposed the edge.
        let mut edges: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        // `evidence` no longer holds selected edges; recompute their
        // delay sums from the corpus in one pass.
        let mut delay_sums: BTreeMap<(u32, u32), (f64, usize)> =
            selected.iter().map(|&e| (e, (0.0, 0))).collect();
        for cascade in cascades.cascades() {
            let infections = cascade.infections();
            for (i, target) in infections.iter().enumerate() {
                for source in &infections[..i] {
                    if let Some(slot) = delay_sums.get_mut(&(source.node.0, target.node.0)) {
                        slot.0 += (target.time - source.time).max(MIN_DELAY);
                        slot.1 += 1;
                    }
                }
            }
        }
        for (&(u, v), &(delays, count)) in &delay_sums {
            if count > 0 {
                edges[u as usize].push((NodeId(v), count as f64 / delays));
            }
        }
        for out in &mut edges {
            out.sort_by_key(|&(v, _)| v);
        }
        let keep = cascades.len().saturating_sub(config.max_history);
        NetInfBackend {
            node_count: n,
            config,
            edges,
            history: cascades.cascades()[keep..].to_vec(),
        }
    }

    /// Number of inferred edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The inferred out-edges of `u`, sorted by target id.
    pub fn out_edges(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.edges[u.index()]
    }

    /// Decodes the checkpoint payload written by `encode`. The retained
    /// cascade history is not part of the payload, so a decoded backend
    /// refits from the batches it sees after boot.
    ///
    /// # Errors
    /// A description of the layout violation.
    pub fn decode(payload: &[u8]) -> Result<NetInfBackend, String> {
        let mut at = 0usize;
        let mut take = |len: usize| -> Result<&[u8], String> {
            let slice = payload
                .get(at..at + len)
                .ok_or("netinf payload truncated")?;
            at += len;
            Ok(slice)
        };
        let u32_of = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
        let f64_of = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap()));
        let node_count = u32_of(take(4)?) as usize;
        let edges_per_node = u32_of(take(4)?) as usize;
        let alpha = f64_of(take(8)?);
        let eps = f64_of(take(8)?);
        let max_history = u32_of(take(4)?) as usize;
        let total = u32_of(take(4)?) as usize;
        let mut edges: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); node_count];
        for _ in 0..total {
            let u = u32_of(take(4)?) as usize;
            let v = u32_of(take(4)?);
            let w = f64_of(take(8)?);
            if u >= node_count || v as usize >= node_count {
                return Err(format!(
                    "netinf edge {u} -> {v} outside the {node_count}-node universe"
                ));
            }
            edges[u].push((NodeId(v), w));
        }
        if at != payload.len() {
            return Err("trailing bytes after the netinf edge list".into());
        }
        for out in &mut edges {
            out.sort_by_key(|&(v, _)| v);
        }
        Ok(NetInfBackend {
            node_count,
            config: NetInfConfig {
                edges_per_node,
                alpha,
                eps,
                max_history,
            },
            edges,
            history: Vec::new(),
        })
    }

    /// `Err` naming the first source row with a non-finite edge weight.
    fn check_finite(&self) -> Result<(), String> {
        check_finite(
            self.edges
                .iter()
                .enumerate()
                .flat_map(|(u, out)| out.iter().map(move |&(_, w)| (u, w))),
        )
    }
}

impl CascadeModel for NetInfBackend {
    fn backend_id(&self) -> &'static str {
        Self::ID
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn topic_count(&self) -> usize {
        0
    }

    fn hazard(&self, u: NodeId, v: NodeId) -> f64 {
        let out = &self.edges[u.index()];
        match out.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(i) => out[i].1,
            Err(_) => 0.0,
        }
    }

    fn rank_candidates(
        &self,
        infected: &[NodeId],
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Vec<(NodeId, f64)> {
        // Sparse accumulation into a dense score row (the infected set
        // summed once, in ascending node order), then the same
        // full-universe scan the embedding backend does, so zero-rate
        // candidates appear (and tie-break) identically across backends.
        let mut score = vec![0.0f64; self.node_count];
        for &u in infected {
            for &(v, w) in &self.edges[u.index()] {
                score[v.index()] += w;
            }
        }
        let scored = candidates(self.node_count, infected, owned).map(|v| (v, score[v.index()]));
        top_k(scored, top)
    }

    fn influencers(
        &self,
        topic: Option<usize>,
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Result<Vec<(NodeId, f64)>, String> {
        if let Some(t) = topic {
            return Err(format!("topic {t} out of range (model has 0 topics)"));
        }
        let scored = rows(self.node_count, owned)
            .map(|u| (u, self.edges[u.index()].iter().map(|&(_, w)| w).sum()));
        Ok(top_k(scored, top))
    }

    fn update(&self, fresh: &CascadeSet) -> Result<Arc<dyn CascadeModel>, String> {
        if fresh.node_count() != self.node_count {
            return Err(format!(
                "netinf graph covers {} nodes but the corpus declares {}",
                self.node_count,
                fresh.node_count()
            ));
        }
        for cascade in fresh.cascades() {
            for infection in cascade.infections() {
                if infection.node.index() >= self.node_count {
                    return Err(format!(
                        "cascade infects node {}, outside the declared universe of {} nodes",
                        infection.node.0, self.node_count
                    ));
                }
            }
        }
        let mut all: Vec<Cascade> = self.history.clone();
        all.extend(fresh.cascades().iter().cloned());
        let keep = all.len().saturating_sub(self.config.max_history);
        let corpus = CascadeSet::new(self.node_count, all[keep..].to_vec());
        let refitted = NetInfBackend::fit(&corpus, self.config);
        refitted.check_finite()?;
        Ok(Arc::new(refitted))
    }

    fn encode(&self) -> Vec<u8> {
        let total = self.edge_count();
        let mut payload = Vec::with_capacity(32 + 16 * total);
        payload.extend_from_slice(&(self.node_count as u32).to_le_bytes());
        payload.extend_from_slice(&(self.config.edges_per_node as u32).to_le_bytes());
        payload.extend_from_slice(&self.config.alpha.to_bits().to_le_bytes());
        payload.extend_from_slice(&self.config.eps.to_bits().to_le_bytes());
        payload.extend_from_slice(&(self.config.max_history as u32).to_le_bytes());
        payload.extend_from_slice(&(total as u32).to_le_bytes());
        for (u, out) in self.edges.iter().enumerate() {
            for &(v, w) in out {
                payload.extend_from_slice(&(u as u32).to_le_bytes());
                payload.extend_from_slice(&v.0.to_le_bytes());
                payload.extend_from_slice(&w.to_bits().to_le_bytes());
            }
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
    use viralcast_propagation::Infection;

    fn chain(nodes: &[u32], step: f64) -> Cascade {
        Cascade::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| Infection::new(n, i as f64 * step))
                .collect(),
        )
        .unwrap()
    }

    fn corpus() -> CascadeSet {
        // Node 0 reliably precedes 1, and 1 precedes 2, with short
        // delays; node 3 adopts independently much later.
        CascadeSet::new(
            4,
            vec![
                chain(&[0, 1, 2], 0.5),
                chain(&[0, 1, 2], 0.4),
                chain(&[0, 1], 0.6),
                Cascade::new(vec![Infection::new(3u32, 0.0)]).unwrap(),
            ],
        )
    }

    #[test]
    fn greedy_fit_recovers_the_chain() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        assert_eq!(b.backend_id(), "netinf");
        assert_eq!(b.node_count(), 4);
        assert_eq!(b.topic_count(), 0);
        assert!(b.hazard(NodeId(0), NodeId(1)) > 0.0, "0->1 missing");
        assert!(b.hazard(NodeId(1), NodeId(2)) > 0.0, "1->2 missing");
        // No cascade ever ran backwards or touched node 3.
        assert_eq!(b.hazard(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(b.hazard(NodeId(0), NodeId(3)), 0.0);
    }

    #[test]
    fn fits_are_deterministic() {
        let a = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn edge_budget_is_respected() {
        let tight = NetInfConfig {
            edges_per_node: 1,
            ..NetInfConfig::default()
        };
        let b = NetInfBackend::fit(&corpus(), tight);
        assert!(b.edge_count() <= 4, "budget exceeded: {}", b.edge_count());
    }

    #[test]
    fn rank_candidates_follows_the_inferred_graph() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        let ranked = b.rank_candidates(&[NodeId(0)], 10, None);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, NodeId(1), "direct successor should lead");
        // All candidates present, zero-rate ones in node order.
        assert_eq!(ranked[ranked.len() - 1].1, 0.0);
    }

    #[test]
    fn influencers_rank_by_weighted_out_degree() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        let global = b.influencers(None, 4, None).unwrap();
        assert_eq!(global.len(), 4);
        assert!(global[0].1 >= global[1].1);
        let err = b.influencers(Some(0), 4, None).unwrap_err();
        assert_eq!(err, "topic 0 out of range (model has 0 topics)");
    }

    #[test]
    fn encode_decode_round_trips_the_graph() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        let back = NetInfBackend::decode(&b.encode()).unwrap();
        assert_eq!(back.node_count, b.node_count);
        assert_eq!(back.config, b.config);
        assert_eq!(back.edges, b.edges);
        assert!(back.history.is_empty(), "history must not be persisted");
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = NetInfBackend::fit(&corpus(), NetInfConfig::default()).encode();
        for cut in 0..good.len() {
            assert!(NetInfBackend::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(NetInfBackend::decode(&trailing).is_err());
    }

    #[test]
    fn update_refits_on_appended_history() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        // New evidence: node 2 now precedes node 3.
        let fresh = CascadeSet::new(4, vec![chain(&[2, 3], 0.3), chain(&[2, 3], 0.2)]);
        let updated = b.update(&fresh).unwrap();
        assert!(updated.hazard(NodeId(2), NodeId(3)) > 0.0, "2->3 missing");
        // Old structure survives because history rides along.
        assert!(updated.hazard(NodeId(0), NodeId(1)) > 0.0, "0->1 lost");
        assert_eq!(b.hazard(NodeId(2), NodeId(3)), 0.0, "self was mutated");
    }

    #[test]
    fn update_rejects_a_foreign_universe() {
        let b = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        let err = b.update(&CascadeSet::new(9, Vec::new())).unwrap_err();
        assert!(err.contains("covers 4 nodes"), "{err}");
    }

    #[test]
    fn update_refuses_a_non_finite_refit() {
        // No corpus makes the MLE weight non-finite (delays are floored
        // at `MIN_DELAY`), so hand the check a poisoned graph directly.
        let mut poisoned = NetInfBackend::fit(&corpus(), NetInfConfig::default());
        assert!(poisoned.check_finite().is_ok());
        poisoned.edges[1].push((NodeId(3), f64::NAN));
        let err = poisoned.check_finite().unwrap_err();
        assert!(err.contains("non-finite parameter at row 1"), "{err}");
    }
}
