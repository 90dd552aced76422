//! Cascades — Definition 1 of the paper.
//!
//! "A cascade is a sequence of distinct infections `(v_i, t_{v_i})` for
//! `i = 1, 2, …, s`, where an infection is a tuple indicating the node
//! `v_i` gets infected at time `t_{v_i}`." Two invariants follow and are
//! enforced here: infection times are non-decreasing (we store them
//! sorted) and every node appears at most once (SI dynamics — a node
//! cannot adopt the same message twice).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use viralcast_graph::NodeId;

/// A single infection event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Infection {
    /// The infected node.
    pub node: NodeId,
    /// The infection time (continuous; the unit is set by the simulator —
    /// hours in the GDELT world).
    pub time: f64,
}

impl Infection {
    /// Convenience constructor.
    pub fn new(node: impl Into<NodeId>, time: f64) -> Self {
        Infection {
            node: node.into(),
            time,
        }
    }
}

/// Why a sequence of infections is not a valid cascade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CascadeError {
    /// The cascade contains no infections.
    Empty,
    /// A node appears more than once.
    DuplicateNode(NodeId),
    /// An infection time is NaN or negative.
    InvalidTime,
}

impl std::fmt::Display for CascadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CascadeError::Empty => write!(f, "cascade has no infections"),
            CascadeError::DuplicateNode(u) => {
                write!(
                    f,
                    "node {u} infected more than once (SI dynamics forbid this)"
                )
            }
            CascadeError::InvalidTime => write!(f, "infection time is NaN or negative"),
        }
    }
}

impl std::error::Error for CascadeError {}

/// A validated cascade: infections sorted by time, nodes distinct.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cascade {
    infections: Vec<Infection>,
}

impl Cascade {
    /// Builds a cascade, sorting by time and validating the invariants.
    pub fn new(mut infections: Vec<Infection>) -> Result<Self, CascadeError> {
        if infections.is_empty() {
            return Err(CascadeError::Empty);
        }
        for inf in &infections {
            if !inf.time.is_finite() || inf.time < 0.0 {
                return Err(CascadeError::InvalidTime);
            }
        }
        infections.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let mut seen = HashSet::with_capacity(infections.len());
        for inf in &infections {
            if !seen.insert(inf.node) {
                return Err(CascadeError::DuplicateNode(inf.node));
            }
        }
        Ok(Cascade { infections })
    }

    /// Number of infections (the *cascade size* the prediction task
    /// targets).
    pub fn len(&self) -> usize {
        self.infections.len()
    }

    /// Whether the cascade is empty (never true for a constructed
    /// cascade, but useful on slices of views).
    pub fn is_empty(&self) -> bool {
        self.infections.is_empty()
    }

    /// The infections in time order.
    pub fn infections(&self) -> &[Infection] {
        &self.infections
    }

    /// The earliest infection — the cascade's seed.
    pub fn seed(&self) -> Infection {
        self.infections[0]
    }

    /// Time span from first to last infection ("duration of events" in
    /// Section II).
    pub fn duration(&self) -> f64 {
        self.infections.last().unwrap().time - self.infections[0].time
    }

    /// The node sequence in infection order (used by the co-occurrence
    /// graph builder).
    pub fn node_sequence(&self) -> Vec<NodeId> {
        self.infections.iter().map(|i| i.node).collect()
    }

    /// Whether `u` is infected in this cascade.
    pub fn contains(&self, u: NodeId) -> bool {
        self.infections.iter().any(|i| i.node == u)
    }

    /// Infection time of `u`, if infected.
    pub fn time_of(&self, u: NodeId) -> Option<f64> {
        self.infections.iter().find(|i| i.node == u).map(|i| i.time)
    }

    /// The prefix of infections with `time ≤ cutoff` — the "early
    /// adopters" fed to the prediction features. May be empty.
    pub fn prefix_until(&self, cutoff: f64) -> &[Infection] {
        let end = self.infections.partition_point(|i| i.time <= cutoff);
        &self.infections[..end]
    }

    /// Early adopters within the first `fraction` of an observation
    /// window of length `window`, measured from the seed time. The paper
    /// uses `fraction = 2/7` on SBM cascades and the first 5 hours on
    /// GDELT events.
    pub fn early_adopters(&self, window: f64, fraction: f64) -> &[Infection] {
        let cutoff = self.seed().time + window * fraction;
        self.prefix_until(cutoff)
    }

    /// A new cascade truncated to `time ≤ cutoff`, or `None` if nothing
    /// survives.
    pub fn truncate(&self, cutoff: f64) -> Option<Cascade> {
        let prefix = self.prefix_until(cutoff);
        if prefix.is_empty() {
            None
        } else {
            Some(Cascade {
                infections: prefix.to_vec(),
            })
        }
    }
}

/// A corpus of cascades over a common node universe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CascadeSet {
    /// Number of nodes in the universe (node ids are `0..node_count`).
    node_count: usize,
    cascades: Vec<Cascade>,
}

impl CascadeSet {
    /// A corpus over `node_count` nodes.
    pub fn new(node_count: usize, cascades: Vec<Cascade>) -> Self {
        debug_assert!(cascades
            .iter()
            .all(|c| c.infections().iter().all(|i| i.node.index() < node_count)));
        CascadeSet {
            node_count,
            cascades,
        }
    }

    /// Number of nodes in the universe.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of cascades.
    pub fn len(&self) -> usize {
        self.cascades.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.cascades.is_empty()
    }

    /// The cascades.
    pub fn cascades(&self) -> &[Cascade] {
        &self.cascades
    }

    /// Adds a cascade.
    pub fn push(&mut self, c: Cascade) {
        debug_assert!(c
            .infections()
            .iter()
            .all(|i| i.node.index() < self.node_count));
        self.cascades.push(c);
    }

    /// Splits into `(first k, rest)` — the paper trains embeddings on the
    /// first 2 000 cascades and evaluates prediction on the last 1 000.
    pub fn split_at(&self, k: usize) -> (CascadeSet, CascadeSet) {
        let k = k.min(self.cascades.len());
        (
            CascadeSet::new(self.node_count, self.cascades[..k].to_vec()),
            CascadeSet::new(self.node_count, self.cascades[k..].to_vec()),
        )
    }

    /// Node sequences of every cascade (co-occurrence input).
    pub fn node_sequences(&self) -> Vec<Vec<NodeId>> {
        self.cascades.iter().map(|c| c.node_sequence()).collect()
    }

    /// Total number of infections across all cascades.
    pub fn total_infections(&self) -> usize {
        self.cascades.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf(node: u32, time: f64) -> Infection {
        Infection::new(node, time)
    }

    #[test]
    fn construction_sorts_by_time() {
        let c = Cascade::new(vec![inf(2, 3.0), inf(0, 1.0), inf(1, 2.0)]).unwrap();
        let times: Vec<f64> = c.infections().iter().map(|i| i.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert_eq!(c.seed().node, NodeId(0));
    }

    #[test]
    fn rejects_duplicate_nodes() {
        let err = Cascade::new(vec![inf(0, 1.0), inf(0, 2.0)]).unwrap_err();
        assert_eq!(err, CascadeError::DuplicateNode(NodeId(0)));
    }

    #[test]
    fn rejects_empty_and_bad_times() {
        assert_eq!(Cascade::new(vec![]).unwrap_err(), CascadeError::Empty);
        assert_eq!(
            Cascade::new(vec![inf(0, f64::NAN)]).unwrap_err(),
            CascadeError::InvalidTime
        );
        assert_eq!(
            Cascade::new(vec![inf(0, -1.0)]).unwrap_err(),
            CascadeError::InvalidTime
        );
    }

    #[test]
    fn duration_and_size() {
        let c = Cascade::new(vec![inf(0, 1.0), inf(1, 4.5)]).unwrap();
        assert_eq!(c.len(), 2);
        assert!((c.duration() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_until_is_inclusive() {
        let c = Cascade::new(vec![inf(0, 1.0), inf(1, 2.0), inf(2, 3.0)]).unwrap();
        assert_eq!(c.prefix_until(2.0).len(), 2);
        assert_eq!(c.prefix_until(1.9).len(), 1);
        assert_eq!(c.prefix_until(0.5).len(), 0);
    }

    #[test]
    fn early_adopters_two_sevenths() {
        // Window 7.0, fraction 2/7 ⇒ cutoff = seed + 2.0.
        let c = Cascade::new(vec![inf(0, 0.0), inf(1, 1.5), inf(2, 2.5), inf(3, 6.0)]).unwrap();
        let early = c.early_adopters(7.0, 2.0 / 7.0);
        assert_eq!(early.len(), 2);
    }

    #[test]
    fn truncate_keeps_prefix_or_none() {
        let c = Cascade::new(vec![inf(0, 1.0), inf(1, 2.0)]).unwrap();
        assert_eq!(c.truncate(1.5).unwrap().len(), 1);
        assert!(c.truncate(0.5).is_none());
    }

    #[test]
    fn time_of_and_contains() {
        let c = Cascade::new(vec![inf(0, 1.0), inf(5, 2.0)]).unwrap();
        assert!(c.contains(NodeId(5)));
        assert!(!c.contains(NodeId(3)));
        assert_eq!(c.time_of(NodeId(5)), Some(2.0));
        assert_eq!(c.time_of(NodeId(3)), None);
    }

    #[test]
    fn set_split_matches_paper_protocol() {
        let mk = |t: f64| Cascade::new(vec![inf(0, t)]).unwrap();
        let set = CascadeSet::new(1, (0..10).map(|i| mk(i as f64)).collect());
        let (train, test) = set.split_at(7);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.node_count(), 1);
    }

    #[test]
    fn split_beyond_len_is_total() {
        let set = CascadeSet::new(1, vec![Cascade::new(vec![inf(0, 0.0)]).unwrap()]);
        let (a, b) = set.split_at(10);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn total_infections_sums_sizes() {
        let c1 = Cascade::new(vec![inf(0, 0.0), inf(1, 1.0)]).unwrap();
        let c2 = Cascade::new(vec![inf(2, 0.0)]).unwrap();
        let set = CascadeSet::new(3, vec![c1, c2]);
        assert_eq!(set.total_infections(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let c = Cascade::new(vec![inf(0, 1.0), inf(1, 2.0)]).unwrap();
        let s = serde_json::to_string(&c).unwrap();
        let c2: Cascade = serde_json::from_str(&s).unwrap();
        assert_eq!(c, c2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// 1–29 infections of distinct nodes below 50 at times in [0, 100),
    /// in node order (so times arrive unsorted).
    fn infection_list(rng: &mut StdRng) -> Vec<Infection> {
        let len = rng.gen_range(1..30usize);
        let mut by_node = BTreeMap::new();
        while by_node.len() < len {
            by_node.insert(rng.gen_range(0u32..50), rng.gen_range(0.0f64..100.0));
        }
        by_node
            .into_iter()
            .map(|(n, t)| Infection::new(n, t))
            .collect()
    }

    /// Constructed cascades always have non-decreasing times and
    /// distinct nodes.
    #[test]
    fn invariants_hold() {
        for case in 0..256 {
            let infs = infection_list(&mut StdRng::seed_from_u64(case));
            let c = Cascade::new(infs).unwrap();
            let inf = c.infections();
            assert!(
                inf.windows(2).all(|w| w[0].time <= w[1].time),
                "case {case}: times decrease"
            );
            let mut nodes: Vec<_> = inf.iter().map(|i| i.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), inf.len(), "case {case}: repeated node");
        }
    }

    /// prefix_until is monotone in the cutoff and bounded by len.
    #[test]
    fn prefix_monotone() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let c = Cascade::new(infection_list(&mut rng)).unwrap();
            let a = rng.gen_range(0.0f64..100.0);
            let b = rng.gen_range(0.0f64..100.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                c.prefix_until(lo).len() <= c.prefix_until(hi).len(),
                "case {case}: prefix shrinks from {lo} to {hi}"
            );
            assert!(c.prefix_until(hi).len() <= c.len(), "case {case}");
        }
    }

    /// Truncation at the last time returns the whole cascade.
    #[test]
    fn truncate_at_end_is_identity() {
        for case in 0..256 {
            let infs = infection_list(&mut StdRng::seed_from_u64(case));
            let c = Cascade::new(infs).unwrap();
            let last = c.infections().last().unwrap().time;
            assert_eq!(c.truncate(last).unwrap().len(), c.len(), "case {case}");
        }
    }
}
