//! News sites: identity, region, language, popularity.

use serde::{Deserialize, Serialize};
use viralcast_graph::NodeId;

/// The regional blocks visible in the paper's Figures 1–2: a large US
/// cluster, a European cluster (UK + continental sites), an Australian
/// cluster, and a residual mixed group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// United States outlets.
    UnitedStates,
    /// United Kingdom and continental Europe.
    Europe,
    /// Australia and New Zealand.
    Australia,
    /// Sites without a clear regional cluster.
    Mixed,
}

impl Region {
    /// All regions in a fixed order (index = numeric label used by
    /// assortativity and locality metrics).
    pub const ALL: [Region; 4] = [
        Region::UnitedStates,
        Region::Europe,
        Region::Australia,
        Region::Mixed,
    ];

    /// Numeric label of the region.
    pub fn index(self) -> usize {
        match self {
            Region::UnitedStates => 0,
            Region::Europe => 1,
            Region::Australia => 2,
            Region::Mixed => 3,
        }
    }

    /// Domain suffix used for synthetic site names.
    fn tld(self) -> &'static str {
        match self {
            Region::UnitedStates => "com",
            Region::Europe => "co.uk",
            Region::Australia => "com.au",
            Region::Mixed => "net",
        }
    }

    /// The languages spoken in the region (GDELT translates 65; we keep
    /// a representative handful per region).
    pub fn languages(self) -> &'static [&'static str] {
        match self {
            Region::UnitedStates => &["en"],
            Region::Europe => &["en", "de", "fr", "es", "it"],
            Region::Australia => &["en"],
            Region::Mixed => &["en", "zh", "ar", "pt", "ru", "hi"],
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Region::UnitedStates => "US",
            Region::Europe => "EU",
            Region::Australia => "AU",
            Region::Mixed => "Mixed",
        };
        write!(f, "{s}")
    }
}

/// One synthetic news outlet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NewsSite {
    /// Dense node id shared with graphs and cascades.
    pub id: NodeId,
    /// Synthetic domain name, e.g. `news-0042.co.uk`.
    pub name: String,
    /// Regional block.
    pub region: Region,
    /// Primary publication language (ISO 639-1 code).
    pub language: String,
    /// Expected yearly event reports (power-law distributed; the paper
    /// cuts below 5 000).
    pub popularity: f64,
}

impl NewsSite {
    /// Builds a site with a templated name.
    pub fn new(id: NodeId, region: Region, language: &str, popularity: f64) -> Self {
        NewsSite {
            name: format!("news-{:04}.{}", id.index(), region.tld()),
            id,
            region,
            language: language.to_owned(),
            popularity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_indices_are_dense() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn names_follow_region_tld() {
        let s = NewsSite::new(NodeId(42), Region::Australia, "en", 10_000.0);
        assert_eq!(s.name, "news-0042.com.au");
    }

    #[test]
    fn languages_nonempty_per_region() {
        for r in Region::ALL {
            assert!(!r.languages().is_empty());
        }
    }

    #[test]
    fn display_is_short() {
        assert_eq!(Region::UnitedStates.to_string(), "US");
        assert_eq!(Region::Mixed.to_string(), "Mixed");
    }

    #[test]
    fn serde_round_trip() {
        let s = NewsSite::new(NodeId(7), Region::Europe, "de", 6_000.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: NewsSite = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.region, s.region);
    }
}
