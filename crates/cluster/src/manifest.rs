//! The cluster manifest: one JSON file every process boots from.
//!
//! Shards and the router must agree exactly on who owns which embedding
//! rows; the manifest is the single source of that truth. It names the
//! shards (id + address) and the placement rule — `"round-robin"` needs
//! nothing else, `"membership"` carries an explicit node → shard vector
//! (the output of community-aligned placement). Both derivations are
//! deterministic, so N shards and the router reading the same file
//! always produce N disjoint [`RowBlock`]s covering every node.

use std::net::SocketAddr;
use std::path::Path;
use viralcast_obs::JsonValue;
use viralcast_serve::json;
use viralcast_serve::shard::RowBlock;

/// The format tag every manifest is written with: shards may carry
/// follower addresses.
pub const MANIFEST_FORMAT: &str = "viralcast-cluster-manifest/v2";

/// The follower-less predecessor; still parsed, never written.
const MANIFEST_FORMAT_V1: &str = "viralcast-cluster-manifest/v1";

/// How nodes map onto shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Node `v` lives on shard `v % shards` — the deterministic
    /// fallback that needs no model.
    RoundRobin,
    /// Explicit node → shard vector (community-aligned placement).
    Membership(Vec<usize>),
}

/// One shard's identity and address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index, `0..shard_count`.
    pub id: usize,
    /// The address the shard's leader daemon binds (and the router
    /// dials for ingest).
    pub addr: SocketAddr,
    /// Read-only follower daemons replicating this shard's leader
    /// (manifest v2); empty for follower-less shards. The router fans
    /// reads across leader + followers and fails over to a follower
    /// when the leader dies.
    pub followers: Vec<SocketAddr>,
}

/// A validated cluster layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterManifest {
    /// The placement rule.
    pub placement: Placement,
    /// The shards, sorted by id (`shards[i].id == i`).
    pub shards: Vec<ShardSpec>,
    /// The backend id every shard must serve (`"embed"`, `"netinf"`).
    /// A single field — not one per shard — makes a mixed-backend
    /// cluster unrepresentable: shard rankings only merge byte-for-byte
    /// when every process scores with the same model family.
    pub backend: String,
}

impl ClusterManifest {
    /// A round-robin manifest over the given shard addresses, serving
    /// the default embed backend.
    ///
    /// # Errors
    /// The address list must be non-empty and duplicate-free.
    pub fn round_robin(addrs: &[SocketAddr]) -> Result<ClusterManifest, String> {
        Self::build(addrs, Placement::RoundRobin)
    }

    /// The same manifest with a different (registered) backend id.
    ///
    /// # Errors
    /// The backend must be one of [`viralcast_model::BACKENDS`].
    pub fn with_backend(mut self, backend: &str) -> Result<ClusterManifest, String> {
        if !viralcast_model::BACKENDS.contains(&backend) {
            return Err(format!(
                "unknown backend {backend:?} (known backends: {})",
                viralcast_model::BACKENDS.join(", ")
            ));
        }
        self.backend = backend.to_string();
        Ok(self)
    }

    /// A membership manifest: `membership[v]` is the shard owning node
    /// `v` (see `placement::community_aligned`).
    ///
    /// # Errors
    /// Every membership value must be a valid shard index, and the
    /// address list non-empty and duplicate-free.
    pub fn with_membership(
        addrs: &[SocketAddr],
        membership: Vec<usize>,
    ) -> Result<ClusterManifest, String> {
        if let Some((v, &m)) = membership
            .iter()
            .enumerate()
            .find(|(_, &m)| m >= addrs.len())
        {
            return Err(format!(
                "membership[{v}] = {m} is not a shard id (manifest has {} shards)",
                addrs.len()
            ));
        }
        Self::build(addrs, Placement::Membership(membership))
    }

    fn build(addrs: &[SocketAddr], placement: Placement) -> Result<ClusterManifest, String> {
        if addrs.is_empty() {
            return Err("manifest must name at least one shard".into());
        }
        for (i, a) in addrs.iter().enumerate() {
            if addrs[..i].contains(a) {
                return Err(format!("duplicate shard address {a}"));
            }
        }
        Ok(ClusterManifest {
            placement,
            shards: addrs
                .iter()
                .enumerate()
                .map(|(id, &addr)| ShardSpec {
                    id,
                    addr,
                    followers: Vec::new(),
                })
                .collect(),
            backend: viralcast_model::EmbeddingBackend::ID.to_string(),
        })
    }

    /// Attaches follower addresses per shard (`followers[i]` replicates
    /// shard `i`'s leader).
    ///
    /// # Errors
    /// The outer vector must have exactly one entry per shard, and every
    /// address across leaders and followers must be distinct.
    pub fn with_followers(
        mut self,
        followers: Vec<Vec<SocketAddr>>,
    ) -> Result<ClusterManifest, String> {
        if followers.len() != self.shards.len() {
            return Err(format!(
                "follower lists cover {} shards but the manifest has {}",
                followers.len(),
                self.shards.len()
            ));
        }
        for (shard, list) in followers.into_iter().enumerate() {
            self.shards[shard].followers = list;
        }
        let mut seen: Vec<SocketAddr> = Vec::new();
        for s in &self.shards {
            for a in std::iter::once(&s.addr).chain(s.followers.iter()) {
                if seen.contains(a) {
                    return Err(format!("duplicate shard address {a}"));
                }
                seen.push(*a);
            }
        }
        Ok(self)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The address of shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn addr_of(&self, shard: usize) -> SocketAddr {
        self.shards[shard].addr
    }

    /// The follower addresses replicating shard `shard` (empty for a
    /// follower-less shard).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn followers_of(&self, shard: usize) -> &[SocketAddr] {
        &self.shards[shard].followers
    }

    /// Derives the candidate row block shard `shard` owns for a model
    /// with `node_count` rows.
    ///
    /// # Errors
    /// `shard` must be in range, and a membership placement must cover
    /// exactly `node_count` nodes — a manifest built for a different
    /// universe is refused rather than silently misrouted.
    pub fn row_block(&self, shard: usize, node_count: usize) -> Result<RowBlock, String> {
        match &self.placement {
            Placement::RoundRobin => RowBlock::round_robin(node_count, shard, self.shard_count()),
            Placement::Membership(membership) => {
                if membership.len() != node_count {
                    return Err(format!(
                        "manifest membership covers {} nodes but the model has {node_count}",
                        membership.len()
                    ));
                }
                RowBlock::from_membership(membership, shard, self.shard_count())
            }
        }
    }

    /// Parses and validates a manifest document.
    pub fn parse(text: &str) -> Result<ClusterManifest, String> {
        let doc = json::parse(text).map_err(|e| format!("malformed manifest JSON: {e}"))?;
        match json::get(&doc, "format") {
            Some(JsonValue::Str(tag)) if tag == MANIFEST_FORMAT || tag == MANIFEST_FORMAT_V1 => {}
            Some(JsonValue::Str(tag)) => {
                return Err(format!(
                    "unsupported manifest format {tag:?} (expected {MANIFEST_FORMAT:?} or {MANIFEST_FORMAT_V1:?})"
                ))
            }
            _ => return Err(format!("missing \"format\" tag {MANIFEST_FORMAT:?}")),
        }
        let shards_json =
            json::as_arr(json::get(&doc, "shards").ok_or("missing \"shards\" array")?)
                .ok_or("\"shards\" must be an array")?;
        let mut entries: Vec<ShardSpec> = Vec::with_capacity(shards_json.len());
        for (i, s) in shards_json.iter().enumerate() {
            let id = json::as_u64(json::get(s, "id").ok_or(format!("shards[{i}]: missing \"id\""))?)
                .ok_or(format!(
                    "shards[{i}]: \"id\" must be a non-negative integer"
                ))? as usize;
            let addr = match json::get(s, "addr") {
                Some(JsonValue::Str(raw)) => raw
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("shards[{i}]: malformed addr {raw:?}: {e}"))?,
                _ => return Err(format!("shards[{i}]: missing \"addr\" string")),
            };
            let followers = match json::get(s, "followers") {
                None => Vec::new(),
                Some(raw) => json::as_arr(raw)
                    .ok_or(format!("shards[{i}]: \"followers\" must be an array"))?
                    .iter()
                    .enumerate()
                    .map(|(j, f)| match f {
                        JsonValue::Str(raw) => raw.parse::<SocketAddr>().map_err(|e| {
                            format!("shards[{i}]: malformed follower addr {raw:?}: {e}")
                        }),
                        _ => Err(format!("shards[{i}]: followers[{j}] must be a string")),
                    })
                    .collect::<Result<Vec<SocketAddr>, String>>()?,
            };
            entries.push(ShardSpec {
                id,
                addr,
                followers,
            });
        }
        entries.sort_by_key(|s| s.id);
        for (expect, s) in entries.iter().enumerate() {
            if s.id != expect {
                return Err(format!(
                    "shard ids must be exactly 0..{} (got id {} where {expect} was expected)",
                    shards_json.len(),
                    s.id
                ));
            }
        }
        let addrs: Vec<SocketAddr> = entries.iter().map(|s| s.addr).collect();
        let followers: Vec<Vec<SocketAddr>> = entries.iter().map(|s| s.followers.clone()).collect();
        // Manifests written before the backend split carry no key and
        // default to embed, same as checkpoint manifests.
        let backend = match json::get(&doc, "backend") {
            None => viralcast_model::EmbeddingBackend::ID,
            Some(JsonValue::Str(raw)) => raw.as_str(),
            Some(_) => return Err("\"backend\" must be a string".into()),
        }
        .to_string();
        match json::get(&doc, "placement") {
            Some(JsonValue::Str(kind)) if kind == "round-robin" => {
                if json::get(&doc, "membership").is_some() {
                    return Err("round-robin placement must not carry a membership".into());
                }
                Self::round_robin(&addrs)?
                    .with_backend(&backend)?
                    .with_followers(followers)
            }
            Some(JsonValue::Str(kind)) if kind == "membership" => {
                let raw = json::as_arr(
                    json::get(&doc, "membership")
                        .ok_or("membership placement requires a \"membership\" array")?,
                )
                .ok_or("\"membership\" must be an array")?;
                let membership = raw
                    .iter()
                    .enumerate()
                    .map(|(v, m)| {
                        json::as_u64(m)
                            .map(|m| m as usize)
                            .ok_or(format!("membership[{v}] must be a non-negative integer"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                Self::with_membership(&addrs, membership)?
                    .with_backend(&backend)?
                    .with_followers(followers)
            }
            Some(JsonValue::Str(kind)) => Err(format!(
                "unknown placement {kind:?} (expected \"round-robin\" or \"membership\")"
            )),
            _ => Err("missing \"placement\" string".into()),
        }
    }

    /// The manifest's JSON document, always under the v2 tag.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("format", JsonValue::from(MANIFEST_FORMAT)),
            ("backend", JsonValue::from(self.backend.as_str())),
            (
                "placement",
                JsonValue::from(match self.placement {
                    Placement::RoundRobin => "round-robin",
                    Placement::Membership(_) => "membership",
                }),
            ),
        ];
        if let Placement::Membership(m) = &self.placement {
            fields.push((
                "membership",
                JsonValue::Arr(m.iter().map(|&s| JsonValue::from(s)).collect()),
            ));
        }
        fields.push((
            "shards",
            JsonValue::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        let mut spec = vec![
                            ("id", JsonValue::from(s.id)),
                            ("addr", JsonValue::from(s.addr.to_string())),
                        ];
                        if !s.followers.is_empty() {
                            spec.push((
                                "followers",
                                JsonValue::Arr(
                                    s.followers
                                        .iter()
                                        .map(|f| JsonValue::from(f.to_string()))
                                        .collect(),
                                ),
                            ));
                        }
                        JsonValue::obj(spec)
                    })
                    .collect(),
            ),
        ));
        JsonValue::obj(fields)
    }

    /// Reads and validates a manifest file.
    pub fn load(path: &Path) -> Result<ClusterManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Writes the manifest (pretty-printed, trailing newline).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = self.to_json().render_pretty();
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_graph::NodeId;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7001 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn round_robin_manifest_round_trips() {
        let m = ClusterManifest::round_robin(&addrs(3)).unwrap();
        assert_eq!(m.backend, "embed");
        let text = m.to_json().render();
        assert!(text.contains("\"format\":\"viralcast-cluster-manifest/v2\""));
        assert!(text.contains("\"backend\":\"embed\""));
        assert!(text.contains("\"placement\":\"round-robin\""));
        let back = ClusterManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.shard_count(), 3);
        assert_eq!(back.addr_of(2).port(), 7003);
    }

    #[test]
    fn backend_round_trips_and_defaults_to_embed() {
        let m = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_backend("netinf")
            .unwrap();
        let text = m.to_json().render();
        assert!(text.contains("\"backend\":\"netinf\""), "{text}");
        assert_eq!(ClusterManifest::parse(&text).unwrap(), m);

        // Pre-backend manifests (no key) still parse, as embed.
        let legacy = r#"{
            "format": "viralcast-cluster-manifest/v1",
            "placement": "round-robin",
            "shards": [{"id": 0, "addr": "127.0.0.1:7001"}]
        }"#;
        assert_eq!(ClusterManifest::parse(legacy).unwrap().backend, "embed");

        // Unregistered backends are refused at construction and parse.
        let err = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_backend("dirichlet")
            .unwrap_err();
        assert!(err.contains("unknown backend \"dirichlet\""), "{err}");
        let bad = legacy.replace("\"placement\"", "\"backend\": \"bogus\", \"placement\"");
        let err = ClusterManifest::parse(&bad).unwrap_err();
        assert!(err.contains("unknown backend \"bogus\""), "{err}");
    }

    #[test]
    fn membership_manifest_round_trips() {
        let m = ClusterManifest::with_membership(&addrs(2), vec![0, 1, 1, 0]).unwrap();
        let back = ClusterManifest::parse(&m.to_json().render()).unwrap();
        assert_eq!(back, m);
        let block = back.row_block(1, 4).unwrap();
        assert!(block.contains(NodeId(1)));
        assert!(block.contains(NodeId(2)));
        assert!(!block.contains(NodeId(0)));
    }

    #[test]
    fn shards_parse_in_any_order_but_ids_must_be_dense() {
        let text = r#"{
            "format": "viralcast-cluster-manifest/v1",
            "placement": "round-robin",
            "shards": [
                {"id": 1, "addr": "127.0.0.1:7002"},
                {"id": 0, "addr": "127.0.0.1:7001"}
            ]
        }"#;
        let m = ClusterManifest::parse(text).unwrap();
        assert_eq!(m.addr_of(0).port(), 7001);
        assert_eq!(m.addr_of(1).port(), 7002);

        let gap = text.replace("\"id\": 1", "\"id\": 2");
        let err = ClusterManifest::parse(&gap).unwrap_err();
        assert!(err.contains("ids must be exactly"), "{err}");
    }

    #[test]
    fn invalid_manifests_are_refused() {
        for (bad, needle) in [
            (r#"{"placement":"round-robin","shards":[]}"#, "format"),
            (
                r#"{"format":"viralcast-cluster-manifest/v3","placement":"round-robin","shards":[]}"#,
                "unsupported manifest format",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v2","placement":"round-robin","shards":[{"id":0,"addr":"127.0.0.1:7001","followers":["127.0.0.1:7001"]}]}"#,
                "duplicate shard address",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v2","placement":"round-robin","shards":[{"id":0,"addr":"127.0.0.1:7001","followers":["nowhere"]}]}"#,
                "malformed follower addr",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v2","placement":"round-robin","shards":[{"id":0,"addr":"127.0.0.1:7001","followers":7}]}"#,
                "\"followers\" must be an array",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"round-robin","shards":[]}"#,
                "at least one shard",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"random","shards":[{"id":0,"addr":"127.0.0.1:7001"}]}"#,
                "unknown placement",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"membership","shards":[{"id":0,"addr":"127.0.0.1:7001"}]}"#,
                "requires a \"membership\"",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"membership","membership":[0,5],"shards":[{"id":0,"addr":"127.0.0.1:7001"}]}"#,
                "not a shard id",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"round-robin","membership":[0],"shards":[{"id":0,"addr":"127.0.0.1:7001"}]}"#,
                "must not carry",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"round-robin","shards":[{"id":0,"addr":"127.0.0.1:7001"},{"id":1,"addr":"127.0.0.1:7001"}]}"#,
                "duplicate shard address",
            ),
            (
                r#"{"format":"viralcast-cluster-manifest/v1","placement":"round-robin","shards":[{"id":0,"addr":"nowhere"}]}"#,
                "malformed addr",
            ),
        ] {
            let err = ClusterManifest::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn follower_manifests_round_trip_with_the_v2_tag() {
        let followers: Vec<Vec<SocketAddr>> = vec![
            vec!["127.0.0.1:8001".parse().unwrap()],
            vec![
                "127.0.0.1:8002".parse().unwrap(),
                "127.0.0.1:8003".parse().unwrap(),
            ],
        ];
        let m = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_followers(followers)
            .unwrap();
        assert_eq!(m.followers_of(0).len(), 1);
        assert_eq!(m.followers_of(1)[1].port(), 8003);

        let text = m.to_json().render();
        assert!(
            text.contains("\"format\":\"viralcast-cluster-manifest/v2\""),
            "{text}"
        );
        let back = ClusterManifest::parse(&text).unwrap();
        assert_eq!(back, m);

        // A follower-less manifest is written as v2 too, and the v1
        // document older `cluster-plan`s wrote for it parses to the same.
        let plain = ClusterManifest::round_robin(&addrs(2)).unwrap();
        let plain_text = plain.to_json().render();
        assert!(plain_text.contains("\"format\":\"viralcast-cluster-manifest/v2\""));
        assert_eq!(ClusterManifest::parse(&plain_text).unwrap(), plain);
        let v1 = r#"{"format":"viralcast-cluster-manifest/v1","backend":"embed","placement":"round-robin","shards":[{"id":0,"addr":"127.0.0.1:7001"},{"id":1,"addr":"127.0.0.1:7002"}]}"#;
        assert_eq!(ClusterManifest::parse(v1).unwrap(), plain);
    }

    #[test]
    fn follower_lists_must_match_shards_and_stay_duplicate_free() {
        let err = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_followers(vec![vec![]])
            .unwrap_err();
        assert!(err.contains("cover 1 shards"), "{err}");

        // A follower colliding with another shard's leader is refused.
        let err = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_followers(vec![vec!["127.0.0.1:7002".parse().unwrap()], vec![]])
            .unwrap_err();
        assert!(err.contains("duplicate shard address"), "{err}");

        // So are two shards sharing a follower.
        let shared: SocketAddr = "127.0.0.1:8009".parse().unwrap();
        let err = ClusterManifest::round_robin(&addrs(2))
            .unwrap()
            .with_followers(vec![vec![shared], vec![shared]])
            .unwrap_err();
        assert!(err.contains("duplicate shard address"), "{err}");
    }

    #[test]
    fn row_blocks_from_one_manifest_tile_the_universe() {
        let m = ClusterManifest::with_membership(&addrs(3), vec![2, 0, 1, 0, 2, 1]).unwrap();
        let blocks: Vec<RowBlock> = (0..3).map(|s| m.row_block(s, 6).unwrap()).collect();
        for v in 0..6u32 {
            assert_eq!(
                blocks.iter().filter(|b| b.contains(NodeId(v))).count(),
                1,
                "node {v}"
            );
        }
        // Membership length must match the model universe.
        let err = m.row_block(0, 7).unwrap_err();
        assert!(err.contains("covers 6 nodes"), "{err}");
        assert!(m.row_block(9, 6).is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("viralcast-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = ClusterManifest::round_robin(&addrs(2)).unwrap();
        m.save(&path).unwrap();
        assert_eq!(ClusterManifest::load(&path).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The every-cut idiom of `crates/store/tests/codec_props.rs`: a
    /// valid v2 manifest cut at every byte, and with every byte flipped
    /// once, parses or is refused with a message — it never panics, and
    /// whatever parses is a manifest `parse` would write back unchanged.
    #[test]
    fn every_cut_and_every_flip_never_panics() {
        let valid = ClusterManifest::with_membership(&addrs(2), vec![0, 1, 1, 0])
            .unwrap()
            .with_followers(vec![vec!["127.0.0.1:8001".parse().unwrap()], vec![]])
            .unwrap()
            .to_json()
            .render();
        let check = |bytes: &[u8], what: &str| {
            let Ok(text) = std::str::from_utf8(bytes) else {
                return; // `load` refuses non-UTF-8 before `parse` sees it
            };
            if let Ok(m) = ClusterManifest::parse(text) {
                let again = ClusterManifest::parse(&m.to_json().render());
                assert_eq!(again.as_ref(), Ok(&m), "{what}");
            }
        };
        for cut in 0..valid.len() {
            check(&valid.as_bytes()[..cut], &format!("cut {cut}"));
        }
        for mask in [0x01u8, 0x04, 0x10, 0xff] {
            for at in 0..valid.len() {
                let mut flipped = valid.clone().into_bytes();
                flipped[at] ^= mask;
                check(&flipped, &format!("flip {at} ^ {mask:#x}"));
            }
        }
    }
}
