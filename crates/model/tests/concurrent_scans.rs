//! Eight threads scanning one 60 000 × 16 model at once — large enough
//! that a scan takes a helper thread whenever a core is free, and under
//! this load mostly finds none — get the answer a lone thread gets, and
//! the full-sort reference's, bit for bit: an answer depends on neither
//! the thread count nor the load.
//!
//! Entries are quarter steps, so scores tie in long runs and ties
//! straddle the point where a scan is cut in two; requests mix predict
//! and influencer scans, single-box and a shard's rows, `top` from 1 to
//! past the row count.

use std::sync::Barrier;
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_model::{rank_order, CascadeModel, EmbeddingBackend, RowBlock};
use viralcast_propagation::dot;

const NODES: usize = 60_000;
const TOPICS: usize = 16;
const THREADS: usize = 8;
const ROUNDS: usize = 6;

/// One request: an infected set (empty for an influencer scan), `top`,
/// and the shard whose rows it ranks, if any.
struct Request {
    infected: Option<Vec<NodeId>>,
    top: usize,
    owned: Option<RowBlock>,
}

impl Request {
    fn run(&self, model: &EmbeddingBackend) -> Vec<(NodeId, u64)> {
        let ranked = match &self.infected {
            Some(infected) => model.rank_candidates(infected, self.top, self.owned.as_ref()),
            None => model
                .influencers(None, self.top, self.owned.as_ref())
                .unwrap(),
        };
        bits(&ranked)
    }

    /// Every row scored the plain way, filtered, fully sorted, truncated.
    fn reference(&self, emb: &Embeddings) -> Vec<(NodeId, u64)> {
        let owns = |v: NodeId| self.owned.as_ref().map_or(true, |b| b.contains(v));
        let mut all: Vec<(NodeId, f64)> = match &self.infected {
            Some(infected) => {
                let mut h = vec![0.0; TOPICS];
                if let Some((&first, rest)) = infected.split_first() {
                    h.copy_from_slice(emb.influence(first));
                    for &u in rest {
                        h.iter_mut()
                            .zip(emb.influence(u))
                            .for_each(|(s, a)| *s += a);
                    }
                }
                (0..NODES)
                    .map(NodeId::new)
                    .filter(|v| owns(*v) && infected.binary_search(v).is_err())
                    .map(|v| (v, dot(&h, emb.selectivity(v))))
                    .collect()
            }
            None => (0..NODES)
                .map(NodeId::new)
                .filter(|v| owns(*v))
                .map(|u| {
                    let norm = emb.influence(u).iter().map(|x| x * x).sum::<f64>();
                    (u, norm.sqrt())
                })
                .collect(),
        };
        all.sort_by(rank_order);
        all.truncate(self.top);
        bits(&all)
    }
}

fn bits(ranked: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

#[test]
fn concurrent_scans_equal_the_lone_answer() {
    let mut rng = StdRng::seed_from_u64(45);
    let mut quarters =
        |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(0..4) as f64 / 4.0).collect() };
    let emb = Embeddings::from_matrices(
        NODES,
        TOPICS,
        quarters(NODES * TOPICS),
        quarters(NODES * TOPICS),
    );
    let model = EmbeddingBackend::new(emb.clone());

    let mut requests = Vec::new();
    for (i, top) in [1, 100, 1000, NODES + 1].into_iter().enumerate() {
        let mut infected: Vec<NodeId> = (0..64)
            .map(|j| NodeId::new((j * 937 + i * 31) % NODES))
            .collect();
        infected.push(infected[0]);
        infected.sort_unstable();
        for owned in [None, Some(RowBlock::round_robin(NODES, i % 2, 2).unwrap())] {
            requests.push(Request {
                infected: Some(infected.clone()),
                top,
                owned: owned.clone(),
            });
            requests.push(Request {
                infected: None,
                top,
                owned,
            });
        }
    }

    let lone: Vec<_> = requests.iter().map(|r| r.run(&model)).collect();
    for (i, (request, answer)) in requests.iter().zip(&lone).enumerate() {
        assert_eq!(answer, &request.reference(&emb), "request {i}: lone scan");
    }

    let start = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (start, model, requests, lone) = (&start, &model, &requests, &lone);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let i = (t * 5 + round) % requests.len();
                    assert_eq!(
                        requests[i].run(model),
                        lone[i],
                        "thread {t}, round {round}: request {i}"
                    );
                }
            });
        }
    });
}
