//! The serving scans against their reference, bit for bit. For both
//! backends the reference scores every row the plain way — `dot(H, B_v)`
//! with `H` the infected rows summed in ascending order, the dense
//! NetInf score row, `‖A_u‖` or `A_u[t]` for influencers — drops
//! the infected and unowned rows, sorts them all by `rank_order` and
//! truncates. Widths cover the scan kernel's const widths (8, 16), its
//! runtime width and the empty one; node counts straddle its four-row
//! groups and 256-row chunks. Rows repeat (ties), sit at zero, or hold
//! NaN or +∞, which total order ranks instead of panicking; infected
//! ids repeat. Round-robin shards of 2 and 3 (a shard scores only the
//! rows it owns), merged by the router's `merge_topk`, must give the
//! single box's answer.
//!
//! A NaN's sign decides its rank, and when two NaNs meet in one
//! operation the operand order picks which one survives. So a row
//! holds at most one non-finite entry, and only the matrix a ranking
//! scores does: `B` for predict, `A` for influencers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralnews::viralcast::cluster::{merge_topk, Ranked};
use viralnews::viralcast::embed::Embeddings;
use viralnews::viralcast::graph::NodeId;
use viralnews::viralcast::model::{
    rank_order, CascadeModel, EmbeddingBackend, NetInfBackend, RowBlock,
};
use viralnews::viralcast::propagation::dot;

const WIDTHS: [usize; 6] = [0, 1, 3, 8, 16, 17];
const NODES: [usize; 8] = [0, 3, 4, 5, 255, 256, 257, 1031];

/// One finite entry: a quarter step (dense ties), a uniform draw, or
/// zero.
fn entry(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => 0.0,
        1..=4 => rng.gen_range(0..4) as f64 / 4.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

/// NaN or +∞.
fn wild(rng: &mut StdRng) -> f64 {
    [f64::NAN, f64::INFINITY][rng.gen_range(0..2)]
}

/// `n` rows of width `k`: one in eight all zero, one in eight a copy of
/// an earlier row, the rest drawn entry by entry — and, when
/// `wild_rows`, one in six of those with one entry NaN or +∞.
fn matrix(rng: &mut StdRng, n: usize, k: usize, wild_rows: bool) -> Vec<f64> {
    let mut m: Vec<f64> = Vec::with_capacity(n * k);
    for v in 0..n {
        match rng.gen_range(0..8) {
            0 => m.resize(m.len() + k, 0.0),
            1 if v > 0 => {
                let u = rng.gen_range(0..v);
                m.extend_from_within(u * k..(u + 1) * k);
            }
            draw => {
                m.extend((0..k).map(|_| entry(rng)));
                if wild_rows && draw == 2 && k > 0 {
                    m[v * k + rng.gen_range(0..k)] = wild(rng);
                }
            }
        }
    }
    m
}

/// Up to eight infected ids, sorted, repeats allowed.
fn infected(rng: &mut StdRng, n: usize) -> Vec<NodeId> {
    if n == 0 {
        return Vec::new();
    }
    let mut ids: Vec<NodeId> = (0..rng.gen_range(0..=8))
        .map(|_| NodeId::new(rng.gen_range(0..n)))
        .collect();
    ids.sort_unstable();
    ids
}

/// A NetInf model decoded from a drawn edge list: up to four distinct
/// targets per source, one weight in sixteen NaN or +∞.
fn netinf(rng: &mut StdRng, n: usize) -> (NetInfBackend, Vec<Vec<(usize, f64)>>) {
    let mut edges: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for out in &mut edges {
        let mut targets: Vec<usize> = (0..rng.gen_range(0..=4))
            .map(|_| rng.gen_range(0..n))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        out.extend(targets.into_iter().map(|v| {
            let w = if rng.gen_range(0..16) == 0 {
                wild(rng)
            } else {
                entry(rng)
            };
            (v, w)
        }));
    }
    let total: usize = edges.iter().map(Vec::len).sum();
    let mut payload = Vec::new();
    for header in [n as u32, 4, 0, 0, 0, 0, 2048, total as u32] {
        payload.extend_from_slice(&header.to_le_bytes());
    }
    for (u, out) in edges.iter().enumerate() {
        for &(v, w) in out {
            payload.extend_from_slice(&(u as u32).to_le_bytes());
            payload.extend_from_slice(&(v as u32).to_le_bytes());
            payload.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    (NetInfBackend::decode(&payload).unwrap(), edges)
}

/// `Σ rows` in the specified order: the first row copied, the rest
/// added, topic by topic; `k` zeros for no rows.
fn sum_rows<'a>(k: usize, mut rows: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut sum = rows.next().map_or_else(|| vec![0.0; k], <[f64]>::to_vec);
    for row in rows {
        for (s, x) in sum.iter_mut().zip(row) {
            *s += x;
        }
    }
    sum
}

/// The reference selection over every row's score.
fn select(
    scores: &[f64],
    infected: &[NodeId],
    owned: Option<&RowBlock>,
    top: usize,
) -> Vec<(NodeId, u64)> {
    let mut all: Vec<(NodeId, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (NodeId::new(v), s))
        .filter(|(v, _)| !infected.contains(v) && owned.is_none_or(|b| b.contains(*v)))
        .collect();
    all.sort_by(rank_order);
    all.truncate(top);
    bits(&all)
}

fn bits(ranked: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// Every shard's answer, merged by the router.
fn merged(
    shards: usize,
    top: usize,
    answer: impl Fn(&RowBlock) -> Vec<(NodeId, f64)>,
    n: usize,
) -> Vec<(NodeId, u64)> {
    let lists: Vec<Vec<Ranked>> = (0..shards)
        .map(|s| {
            let block = RowBlock::round_robin(n, s, shards).unwrap();
            answer(&block)
                .into_iter()
                .map(|(v, score)| Ranked::bare(u64::from(v.0), score))
                .collect()
        })
        .collect();
    merge_topk(&lists, top)
        .into_iter()
        .map(|r| (NodeId(r.node as u32), r.score.to_bits()))
        .collect()
}

/// One ranking checked against its reference for every `top`, single
/// box and merged shards alike.
fn check(
    what: &str,
    n: usize,
    scores: &[f64],
    infected: &[NodeId],
    answer: impl Fn(usize, Option<&RowBlock>) -> Vec<(NodeId, f64)>,
) {
    for top in [0, 1, 7, 100, n, usize::MAX] {
        let want = select(scores, infected, None, top);
        assert_eq!(bits(&answer(top, None)), want, "{what}, top {top}");
        for shards in [2, 3] {
            let block = RowBlock::round_robin(n, 1 % shards, shards).unwrap();
            assert_eq!(
                bits(&answer(top, Some(&block))),
                select(scores, infected, Some(&block), top),
                "{what}, top {top}, shard 1 of {shards}"
            );
            let got = merged(shards, top, |b| answer(top, Some(b)), n);
            assert_eq!(got, want, "{what}, top {top}, {shards} shards merged");
        }
    }
}

#[test]
fn embedding_scans_equal_the_reference_bit_for_bit() {
    for seed in 0..2u64 {
        for n in NODES {
            for k in WIDTHS {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + (n * 31 + k) as u64);
                let what = format!("embed seed {seed}, n {n}, k {k}");

                let a = matrix(&mut rng, n, k, false);
                let b = matrix(&mut rng, n, k, true);
                let emb = Embeddings::from_matrices(n, k, a, b);
                let model = EmbeddingBackend::new(emb.clone());

                let infected = infected(&mut rng, n);
                let h = sum_rows(k, infected.iter().map(|&u| emb.influence(u)));
                let scores: Vec<f64> = (0..n)
                    .map(|v| dot(&h, emb.selectivity(NodeId::new(v))))
                    .collect();
                check(
                    &format!("{what}, predict"),
                    n,
                    &scores,
                    &infected,
                    |top, owned| model.rank_candidates(&infected, top, owned),
                );

                let a = matrix(&mut rng, n, k, true);
                let b = matrix(&mut rng, n, k, false);
                let emb = Embeddings::from_matrices(n, k, a, b);
                let model = EmbeddingBackend::new(emb.clone());
                let scores: Vec<f64> = (0..n)
                    .map(|u| {
                        let row = emb.influence(NodeId::new(u));
                        row.iter().map(|x| x * x).sum::<f64>().sqrt()
                    })
                    .collect();
                check(
                    &format!("{what}, influencers"),
                    n,
                    &scores,
                    &[],
                    |top, owned| model.influencers(None, top, owned).unwrap(),
                );
                for t in [0, k / 2, k.saturating_sub(1)]
                    .into_iter()
                    .filter(|&t| t < k)
                {
                    let scores: Vec<f64> =
                        (0..n).map(|u| emb.influence(NodeId::new(u))[t]).collect();
                    check(
                        &format!("{what}, topic {t}"),
                        n,
                        &scores,
                        &[],
                        |top, owned| model.influencers(Some(t), top, owned).unwrap(),
                    );
                }
            }
        }
    }
}

#[test]
fn netinf_scans_equal_the_reference_bit_for_bit() {
    for seed in 0..4u64 {
        for n in NODES {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
            let (model, edges) = netinf(&mut rng, n);
            let what = format!("netinf seed {seed}, n {n}");

            let infected = infected(&mut rng, n);
            let mut scores = vec![0.0; n];
            for &u in &infected {
                for &(v, w) in &edges[u.index()] {
                    scores[v] += w;
                }
            }
            check(
                &format!("{what}, predict"),
                n,
                &scores,
                &infected,
                |top, owned| model.rank_candidates(&infected, top, owned),
            );

            let scores: Vec<f64> = edges
                .iter()
                .map(|out| out.iter().map(|&(_, w)| w).sum())
                .collect();
            check(
                &format!("{what}, influencers"),
                n,
                &scores,
                &[],
                |top, owned| model.influencers(None, top, owned).unwrap(),
            );
        }
    }
}
