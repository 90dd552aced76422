//! The mention table — our stand-in for GDELT's event-mention records.
//!
//! GDELT stores "the mentions of news events by news sites"; each row of
//! the synthetic table is one `(site, event, hour)` triple, hours
//! measured from the event's first report. Aggregations mirror the
//! queries the paper ran: reports per site (Figure 3), per-event
//! reporting-site sets (Figures 1–2), early mentions (the 5-hour
//! prediction input of Figure 12), and conversion to cascades for the
//! inference stage.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use viralcast_graph::NodeId;
use viralcast_propagation::{Cascade, CascadeSet, Infection};

/// One mention record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mention {
    /// Reporting site.
    pub site: NodeId,
    /// Event id (dense `0..event_count`).
    pub event: u32,
    /// Hours since the event's first report.
    pub hour: f64,
}

/// A table of mention records over a fixed site/event universe.
#[derive(Clone, Debug)]
pub struct MentionTable {
    site_count: usize,
    event_count: usize,
    mentions: Vec<Mention>,
}

impl MentionTable {
    /// Builds a table, sorting mentions by `(event, hour)`.
    pub fn new(site_count: usize, event_count: usize, mut mentions: Vec<Mention>) -> Self {
        assert!(
            mentions
                .iter()
                .all(|m| m.site.index() < site_count && (m.event as usize) < event_count),
            "mention outside the declared universe"
        );
        mentions.sort_by(|a, b| {
            a.event
                .cmp(&b.event)
                .then(a.hour.partial_cmp(&b.hour).unwrap())
        });
        MentionTable {
            site_count,
            event_count,
            mentions,
        }
    }

    /// Number of sites in the universe.
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// Number of events in the universe.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// All mentions, sorted by `(event, hour)`.
    pub fn mentions(&self) -> &[Mention] {
        &self.mentions
    }

    /// Number of events each site reported (the Figure 3 histogram
    /// input).
    pub fn reports_per_site(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.site_count];
        for m in &self.mentions {
            counts[m.site.index()] += 1;
        }
        counts
    }

    /// Number of mentions per event (the prediction target of
    /// Figure 12: "the total number of reports in 3 days").
    pub fn reports_per_event(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.event_count];
        for m in &self.mentions {
            counts[m.event as usize] += 1;
        }
        counts
    }

    /// Per-event sets of reporting sites (input to Jaccard clustering
    /// and the backbone network).
    pub fn event_site_sets(&self) -> Vec<Vec<NodeId>> {
        let mut sets = vec![Vec::new(); self.event_count];
        for m in &self.mentions {
            sets[m.event as usize].push(m.site);
        }
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        sets
    }

    /// Converts each event's mentions into a cascade (first mention per
    /// site wins; events with no mentions are dropped).
    pub fn to_cascade_set(&self) -> CascadeSet {
        let mut cascades = Vec::new();
        let mut start = 0;
        while start < self.mentions.len() {
            let event = self.mentions[start].event;
            let mut end = start;
            while end < self.mentions.len() && self.mentions[end].event == event {
                end += 1;
            }
            let slice = &self.mentions[start..end];
            let mut seen = std::collections::HashSet::new();
            let infections: Vec<Infection> = slice
                .iter()
                .filter(|m| seen.insert(m.site))
                .map(|m| Infection::new(m.site, m.hour))
                .collect();
            if let Ok(c) = Cascade::new(infections) {
                cascades.push(c);
            }
            start = end;
        }
        CascadeSet::new(self.site_count, cascades)
    }

    /// Writes the table as CSV (`site,event,hour` with a header).
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "site,event,hour")?;
        for m in &self.mentions {
            writeln!(w, "{},{},{}", m.site.0, m.event, m.hour)?;
        }
        w.flush()
    }

    /// Reads a table previously written by [`MentionTable::save_csv`].
    /// The universe is inferred as `max + 1` over the observed ids.
    pub fn load_csv(path: &Path) -> std::io::Result<MentionTable> {
        let reader = BufReader::new(std::fs::File::open(path)?);
        let mut mentions = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if lineno == 0 || line.trim().is_empty() {
                continue; // header
            }
            let mut parts = line.split(',');
            let parse_err =
                || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed CSV row");
            let site: u32 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let event: u32 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let hour: f64 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            mentions.push(Mention {
                site: NodeId(site),
                event,
                hour,
            });
        }
        let site_count = mentions
            .iter()
            .map(|m| m.site.index() + 1)
            .max()
            .unwrap_or(0);
        let event_count = mentions
            .iter()
            .map(|m| m.event as usize + 1)
            .max()
            .unwrap_or(0);
        Ok(MentionTable::new(site_count, event_count, mentions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MentionTable {
        MentionTable::new(
            4,
            3,
            vec![
                Mention {
                    site: NodeId(1),
                    event: 0,
                    hour: 2.0,
                },
                Mention {
                    site: NodeId(0),
                    event: 0,
                    hour: 0.0,
                },
                Mention {
                    site: NodeId(2),
                    event: 1,
                    hour: 0.0,
                },
                Mention {
                    site: NodeId(0),
                    event: 1,
                    hour: 5.5,
                },
                Mention {
                    site: NodeId(3),
                    event: 1,
                    hour: 1.0,
                },
            ],
        )
    }

    #[test]
    fn mentions_sorted_by_event_then_hour() {
        let t = table();
        let keys: Vec<(u32, f64)> = t.mentions().iter().map(|m| (m.event, m.hour)).collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));
        assert_eq!(keys, sorted);
    }

    #[test]
    fn reports_per_site_counts() {
        assert_eq!(table().reports_per_site(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn reports_per_event_counts() {
        assert_eq!(table().reports_per_event(), vec![2, 3, 0]);
    }

    #[test]
    fn event_site_sets_sorted_dedup() {
        let sets = table().event_site_sets();
        assert_eq!(sets[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(sets[1], vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert!(sets[2].is_empty());
    }

    #[test]
    fn cascades_one_per_nonempty_event() {
        let set = table().to_cascade_set();
        assert_eq!(set.len(), 2);
        assert_eq!(set.cascades()[0].seed().node, NodeId(0));
        assert_eq!(set.cascades()[1].seed().node, NodeId(2));
    }

    #[test]
    fn duplicate_site_mentions_keep_first() {
        let t = MentionTable::new(
            2,
            1,
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
                    site: NodeId(1),
                    event: 0,
                    hour: 3.0,
                }, // repeat
            ],
        );
        let set = t.to_cascade_set();
        assert_eq!(set.cascades()[0].len(), 2);
        assert_eq!(set.cascades()[0].time_of(NodeId(1)), Some(1.0));
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("viralcast-gdelt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mentions.csv");
        let t = table();
        t.save_csv(&path).unwrap();
        let back = MentionTable::load_csv(&path).unwrap();
        assert_eq!(back.mentions(), t.mentions());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_csv_row_is_an_error() {
        let dir = std::env::temp_dir().join("viralcast-gdelt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.csv");
        std::fs::write(&path, "site,event,hour\n1,notanumber,0.5\n").unwrap();
        let err = MentionTable::load_csv(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_csv_loads_empty_table() {
        let dir = std::env::temp_dir().join("viralcast-gdelt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.csv");
        std::fs::write(&path, "site,event,hour\n").unwrap();
        let t = MentionTable::load_csv(&path).unwrap();
        assert_eq!(t.mentions().len(), 0);
        assert_eq!(t.site_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "outside the declared universe")]
    fn out_of_universe_rejected() {
        MentionTable::new(
            1,
            1,
            vec![Mention {
                site: NodeId(5),
                event: 0,
                hour: 0.0,
            }],
        );
    }
}
