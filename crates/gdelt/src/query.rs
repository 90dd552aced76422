//! A small query layer over the mention table.
//!
//! The paper's authors worked GDELT through Google BigQuery ("users can
//! … process the data remotely by SQL commands"). These helpers stand in
//! for the handful of aggregations the paper actually needed: the
//! most-popular-sites ranking, random event sampling (the 5 000 and
//! 2 600 event samples of Sections II and VI-B), and pairwise co-report
//! counts for the backbone network.

use crate::records::MentionTable;
use rand::Rng;
use viralcast_graph::backbone::BackboneGraph;
use viralcast_graph::NodeId;

/// The `k` sites with the most reports, ordered descending, as
/// `(site, report_count)`.
pub fn top_sites(table: &MentionTable, k: usize) -> Vec<(NodeId, usize)> {
    let counts = table.reports_per_site();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    order
        .into_iter()
        .take(k)
        .map(|u| (NodeId::new(u), counts[u]))
        .collect()
}

/// Uniformly samples `k` distinct event ids (Floyd's algorithm keeps it
/// `O(k)` even for large universes).
pub fn sample_events<R: Rng>(table: &MentionTable, k: usize, rng: &mut R) -> Vec<u32> {
    let n = table.event_count();
    let k = k.min(n);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j) as u32;
        if !chosen.insert(t) {
            chosen.insert(j as u32);
        }
    }
    let mut out: Vec<u32> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Reporting-site sets of a subset of events, for Jaccard clustering.
pub fn site_sets_of(table: &MentionTable, events: &[u32]) -> Vec<Vec<NodeId>> {
    let all = table.event_site_sets();
    events.iter().map(|&e| all[e as usize].clone()).collect()
}

/// Builds the Figure 2 backbone: sites co-reporting at least
/// `threshold` of the given events are linked.
pub fn coreport_backbone(table: &MentionTable, events: &[u32], threshold: usize) -> BackboneGraph {
    let sets = site_sets_of(table, events);
    BackboneGraph::build(table.site_count(), &sets, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Mention;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> MentionTable {
        // Site 0 reports everything; sites 1, 2 split events.
        MentionTable::new(
            3,
            4,
            vec![
                Mention {
                    site: NodeId(0),
                    event: 0,
                    hour: 0.0,
                },
                Mention {
                    site: NodeId(1),
                    event: 0,
                    hour: 1.0,
                },
                Mention {
                    site: NodeId(0),
                    event: 1,
                    hour: 0.0,
                },
                Mention {
                    site: NodeId(1),
                    event: 1,
                    hour: 2.0,
                },
                Mention {
                    site: NodeId(0),
                    event: 2,
                    hour: 0.0,
                },
                Mention {
                    site: NodeId(2),
                    event: 2,
                    hour: 1.0,
                },
                Mention {
                    site: NodeId(0),
                    event: 3,
                    hour: 0.0,
                },
            ],
        )
    }

    #[test]
    fn top_sites_ranked_by_reports() {
        let top = top_sites(&table(), 2);
        assert_eq!(top[0], (NodeId(0), 4));
        assert_eq!(top[1], (NodeId(1), 2));
    }

    #[test]
    fn sample_events_distinct_and_in_range() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sample_events(&t, 3, &mut rng);
        assert_eq!(sample.len(), 3);
        let mut dedup = sample.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert!(sample.iter().all(|&e| e < 4));
    }

    #[test]
    fn sample_larger_than_universe_clamps() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_events(&t, 100, &mut rng).len(), 4);
    }

    #[test]
    fn backbone_links_frequent_coreporters() {
        // Sites 0 and 1 co-report events 0, 1 (count 2); 0 and 2 only
        // event 2 (count 1).
        let bb = coreport_backbone(&table(), &[0, 1, 2, 3], 2);
        assert!(bb.graph().has_edge(NodeId(0), NodeId(1)));
        assert!(!bb.graph().has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn site_sets_subset_matches_events() {
        let sets = site_sets_of(&table(), &[2, 3]);
        assert_eq!(sets[0], vec![NodeId(0), NodeId(2)]);
        assert_eq!(sets[1], vec![NodeId(0)]);
    }
}
