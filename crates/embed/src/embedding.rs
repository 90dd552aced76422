//! The influence/selectivity matrix pair.
//!
//! `A` and `B` are dense row-major `n × K` matrices of non-negative
//! reals. The number of latent variables is `2nK` — "linear to the number
//! of nodes", the paper's headline advantage over `O(n²)` edge models.
//!
//! For the parallel algorithms the matrices can be *re-laid-out*: rows
//! permuted so that each community occupies a contiguous block
//! ([`Embeddings::reorder`]), handed out as disjoint `&mut` blocks, and
//! permuted back ([`Embeddings::restore`]) when inference finishes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use viralcast_graph::NodeId;

/// The pair of non-negative embedding matrices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Embeddings {
    n: usize,
    k: usize,
    /// Influence matrix `A`, row-major `n × k`.
    a: Vec<f64>,
    /// Selectivity matrix `B`, row-major `n × k`.
    b: Vec<f64>,
}

impl Embeddings {
    /// Zero-initialised embeddings.
    pub fn zeros(n: usize, k: usize) -> Self {
        assert!(k > 0, "at least one topic required");
        Embeddings {
            n,
            k,
            a: vec![0.0; n * k],
            b: vec![0.0; n * k],
        }
    }

    /// Random uniform initialisation in `[lo, hi)` — gradient ascent
    /// needs strictly positive starting points so the `ln` term is
    /// finite.
    pub fn random<R: Rng>(n: usize, k: usize, lo: f64, hi: f64, rng: &mut R) -> Self {
        assert!(0.0 <= lo && lo < hi, "need 0 <= lo < hi");
        assert!(k > 0, "at least one topic required");
        let mut gen = || rng.gen_range(lo..hi);
        let a = (0..n * k).map(|_| gen()).collect();
        let b = (0..n * k).map(|_| gen()).collect();
        Embeddings { n, k, a, b }
    }

    /// Wraps existing matrices.
    pub fn from_matrices(n: usize, k: usize, a: Vec<f64>, b: Vec<f64>) -> Self {
        assert_eq!(a.len(), n * k, "A shape mismatch");
        assert_eq!(b.len(), n * k, "B shape mismatch");
        Embeddings { n, k, a, b }
    }

    /// Number of nodes (rows).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of topics (columns).
    pub fn topic_count(&self) -> usize {
        self.k
    }

    /// Influence row `A_u`.
    #[inline]
    pub fn influence(&self, u: NodeId) -> &[f64] {
        let i = u.index() * self.k;
        &self.a[i..i + self.k]
    }

    /// Selectivity row `B_u`.
    #[inline]
    pub fn selectivity(&self, u: NodeId) -> &[f64] {
        let i = u.index() * self.k;
        &self.b[i..i + self.k]
    }

    /// The full influence matrix (row-major).
    pub fn influence_matrix(&self) -> &[f64] {
        &self.a
    }

    /// The full selectivity matrix (row-major).
    pub fn selectivity_matrix(&self) -> &[f64] {
        &self.b
    }

    /// Mutable views of both matrices (for the optimisers).
    pub fn matrices_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.a, &mut self.b)
    }

    /// The modelled transmission rate `⟨A_u, B_v⟩` (eq. 6).
    ///
    /// ```
    /// use viralcast_embed::Embeddings;
    /// use viralcast_graph::NodeId;
    /// let emb = Embeddings::from_matrices(
    ///     2, 2,
    ///     vec![1.0, 2.0,  0.0, 0.0],  // A rows
    ///     vec![0.0, 0.0,  3.0, 4.0],  // B rows
    /// );
    /// assert_eq!(emb.rate(NodeId(0), NodeId(1)), 1.0 * 3.0 + 2.0 * 4.0);
    /// ```
    pub fn rate(&self, u: NodeId, v: NodeId) -> f64 {
        dot(self.influence(u), self.selectivity(v))
    }

    /// Rows permuted into a layout: new row `p` is old row `layout[p]`.
    /// `layout` must be a permutation of all nodes.
    pub fn reorder(&self, layout: &[NodeId]) -> Embeddings {
        assert_eq!(layout.len(), self.n, "layout must cover every node");
        let mut out = Embeddings::zeros(self.n, self.k);
        for (p, &u) in layout.iter().enumerate() {
            let src = u.index() * self.k;
            let dst = p * self.k;
            out.a[dst..dst + self.k].copy_from_slice(&self.a[src..src + self.k]);
            out.b[dst..dst + self.k].copy_from_slice(&self.b[src..src + self.k]);
        }
        out
    }

    /// Inverse of [`Embeddings::reorder`]: assuming `self` is laid out by
    /// `layout`, returns embeddings in original node order.
    pub fn restore(&self, layout: &[NodeId]) -> Embeddings {
        assert_eq!(layout.len(), self.n, "layout must cover every node");
        let mut out = Embeddings::zeros(self.n, self.k);
        for (p, &u) in layout.iter().enumerate() {
            let src = p * self.k;
            let dst = u.index() * self.k;
            out.a[dst..dst + self.k].copy_from_slice(&self.a[src..src + self.k]);
            out.b[dst..dst + self.k].copy_from_slice(&self.b[src..src + self.k]);
        }
        out
    }

    /// Splits both matrices into disjoint mutable row blocks given
    /// row-position ranges that tile `0..n` in order. Each entry is
    /// `(a_block, b_block)` of length `range.len() × k`.
    pub fn split_blocks(
        &mut self,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<(&mut [f64], &mut [f64])> {
        // Validate tiling.
        let mut expect = 0usize;
        for r in ranges {
            assert_eq!(r.start, expect, "ranges must tile contiguously");
            expect = r.end;
        }
        assert_eq!(expect, self.n, "ranges must cover all rows");
        let k = self.k;
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest_a: &mut [f64] = &mut self.a;
        let mut rest_b: &mut [f64] = &mut self.b;
        for r in ranges {
            let (block_a, tail_a) = rest_a.split_at_mut(r.len() * k);
            let (block_b, tail_b) = rest_b.split_at_mut(r.len() * k);
            out.push((block_a, block_b));
            rest_a = tail_a;
            rest_b = tail_b;
        }
        out
    }

    /// Saves the embeddings as JSON, tagged with
    /// [`EMBEDDINGS_FORMAT`] so [`Embeddings::load_json`] can reject
    /// foreign or stale files by name instead of by parse failure.
    ///
    /// The write is atomic: the JSON is staged in a temp file in the
    /// same directory, fsynced, and renamed over the target, so a crash
    /// mid-save leaves either the previous file or the new one — never
    /// a torn mix.
    pub fn save_json(&self, path: &std::path::Path) -> Result<(), EmbeddingFileError> {
        use std::io::Write as _;
        #[derive(Serialize)]
        struct SaveFile<'a> {
            format: &'a str,
            n: usize,
            k: usize,
            a: &'a [f64],
            b: &'a [f64],
        }
        let json = serde_json::to_string(&SaveFile {
            format: EMBEDDINGS_FORMAT,
            n: self.n,
            k: self.k,
            a: &self.a,
            b: &self.b,
        })
        .map_err(|e| EmbeddingFileError::Format(format!("serialisation failed: {e}")))?;
        // Dot-prefixed sibling so the rename never crosses filesystems.
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("embeddings");
        let tmp = path.with_file_name(format!(".{name}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads embeddings previously written by [`Embeddings::save_json`].
    pub fn load_json(path: &std::path::Path) -> Result<Embeddings, EmbeddingFileError> {
        #[derive(Deserialize)]
        struct LoadFile {
            format: Option<String>,
            n: usize,
            k: usize,
            a: Vec<f64>,
            b: Vec<f64>,
        }
        let text = std::fs::read_to_string(path)?;
        let file: LoadFile = serde_json::from_str(&text).map_err(|e| {
            EmbeddingFileError::Format(format!("not a parseable embeddings file: {e}"))
        })?;
        match file.format.as_deref() {
            Some(EMBEDDINGS_FORMAT) => {}
            Some(other) => {
                return Err(EmbeddingFileError::Format(format!(
                    "format tag {other:?} does not match {EMBEDDINGS_FORMAT:?}"
                )))
            }
            None => {
                return Err(EmbeddingFileError::Format(format!(
                    "missing format tag (expected {EMBEDDINGS_FORMAT:?}; \
                     was this file written by save_json?)"
                )))
            }
        }
        if file.a.len() != file.n * file.k || file.b.len() != file.n * file.k {
            return Err(EmbeddingFileError::Format(format!(
                "matrix shapes (|A| = {}, |B| = {}) do not match the declared \
                 {} × {} dimensions",
                file.a.len(),
                file.b.len(),
                file.n,
                file.k
            )));
        }
        Ok(Embeddings {
            n: file.n,
            k: file.k,
            a: file.a,
            b: file.b,
        })
    }

    /// Maximum absolute entry-wise difference to another embedding of
    /// identical shape.
    pub fn max_abs_diff(&self, other: &Embeddings) -> f64 {
        assert_eq!((self.n, self.k), (other.n, other.k), "shape mismatch");
        self.a
            .iter()
            .zip(&other.a)
            .chain(self.b.iter().zip(&other.b))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }
}

/// Format tag written into (and demanded from) embedding JSON files,
/// mirroring `viralcast-cascades-v1` on the cascade store.
pub const EMBEDDINGS_FORMAT: &str = "viralcast-embeddings-v1";

/// Why an embeddings file could not be written or read.
#[derive(Debug)]
pub enum EmbeddingFileError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but is not a valid tagged embeddings file.
    Format(String),
}

impl std::fmt::Display for EmbeddingFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingFileError::Io(e) => write!(f, "embeddings file I/O error: {e}"),
            EmbeddingFileError::Format(m) => write!(f, "invalid embeddings file: {m}"),
        }
    }
}

impl std::error::Error for EmbeddingFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmbeddingFileError::Io(e) => Some(e),
            EmbeddingFileError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for EmbeddingFileError {
    fn from(e: std::io::Error) -> Self {
        EmbeddingFileError::Io(e)
    }
}

/// Dense dot product (the innermost hot loop of everything here).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let e = Embeddings::zeros(3, 2);
        assert_eq!(e.node_count(), 3);
        assert_eq!(e.topic_count(), 2);
        assert_eq!(e.influence(NodeId(2)), &[0.0, 0.0]);
    }

    #[test]
    fn random_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embeddings::random(10, 4, 0.2, 0.9, &mut rng);
        for u in 0..10u32 {
            for &x in e
                .influence(NodeId(u))
                .iter()
                .chain(e.selectivity(NodeId(u)))
            {
                assert!((0.2..0.9).contains(&x));
            }
        }
    }

    #[test]
    fn rate_is_inner_product() {
        let e = Embeddings::from_matrices(2, 2, vec![1.0, 2.0, 0.5, 0.0], vec![0.0, 1.0, 3.0, 4.0]);
        // ⟨A_0, B_1⟩ = 1*3 + 2*4 = 11
        assert_eq!(e.rate(NodeId(0), NodeId(1)), 11.0);
    }

    #[test]
    fn reorder_then_restore_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Embeddings::random(5, 3, 0.1, 1.0, &mut rng);
        let layout: Vec<NodeId> = [3u32, 0, 4, 1, 2].iter().copied().map(NodeId).collect();
        let round = e.reorder(&layout).restore(&layout);
        assert_eq!(e, round);
    }

    #[test]
    fn reorder_moves_rows() {
        let e = Embeddings::from_matrices(2, 1, vec![1.0, 2.0], vec![3.0, 4.0]);
        let layout = vec![NodeId(1), NodeId(0)];
        let r = e.reorder(&layout);
        assert_eq!(r.influence(NodeId(0)), &[2.0]);
        assert_eq!(r.selectivity(NodeId(1)), &[3.0]);
    }

    #[test]
    fn split_blocks_are_disjoint_and_sized() {
        let mut e = Embeddings::zeros(6, 2);
        let ranges = vec![0..2, 2..3, 3..6];
        let blocks = e.split_blocks(&ranges);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].0.len(), 4);
        assert_eq!(blocks[1].0.len(), 2);
        assert_eq!(blocks[2].1.len(), 6);
    }

    #[test]
    fn split_blocks_write_through() {
        let mut e = Embeddings::zeros(4, 1);
        {
            let mut blocks = e.split_blocks(&[0..2, 2..4]);
            blocks[1].0[0] = 7.0; // row 2 influence
            blocks[0].1[1] = 5.0; // row 1 selectivity
        }
        assert_eq!(e.influence(NodeId(2)), &[7.0]);
        assert_eq!(e.selectivity(NodeId(1)), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "tile contiguously")]
    fn split_blocks_rejects_gaps() {
        let mut e = Embeddings::zeros(4, 1);
        let _ = e.split_blocks(&[0..1, 2..4]);
    }

    #[test]
    fn max_abs_diff_measures() {
        let e1 = Embeddings::from_matrices(1, 2, vec![1.0, 2.0], vec![0.0, 0.0]);
        let e2 = Embeddings::from_matrices(1, 2, vec![1.5, 2.0], vec![0.0, 0.25]);
        assert_eq!(e1.max_abs_diff(&e2), 0.5);
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn json_file_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let e = Embeddings::random(4, 3, 0.1, 1.0, &mut rng);
        let dir = std::env::temp_dir().join("viralcast-embed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emb.json");
        e.save_json(&path).unwrap();
        let back = Embeddings::load_json(&path).unwrap();
        assert!(e.max_abs_diff(&back) < 1e-12);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `contents` to a temp file and returns `load_json`'s error.
    fn load_error(name: &str, contents: &str) -> EmbeddingFileError {
        let dir = std::env::temp_dir().join("viralcast-embed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = Embeddings::load_json(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn save_json_writes_the_format_tag() {
        let dir = std::env::temp_dir().join("viralcast-embed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tagged.json");
        Embeddings::zeros(1, 1).save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            text.contains(&format!("\"format\":\"{EMBEDDINGS_FORMAT}\"")),
            "{text}"
        );
    }

    #[test]
    fn save_json_is_atomic_over_an_existing_file() {
        let dir = std::env::temp_dir().join("viralcast-embed-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emb.json");
        let tmp = dir.join(".emb.json.tmp");
        // An existing good file, plus a stale temp left by a past crash.
        if Embeddings::from_matrices(1, 1, vec![1.0], vec![1.0])
            .save_json(&path)
            .is_err()
        {
            // Serialisation itself is unavailable (offline stub serde):
            // there is no write whose atomicity could be asserted.
            return;
        }
        std::fs::write(&tmp, b"partial garbage from a crashed save").unwrap();
        // Overwriting goes through the temp file and renames over the
        // target: the result is the new model and no temp remains.
        let next = Embeddings::from_matrices(1, 1, vec![2.0], vec![3.0]);
        next.save_json(&path).unwrap();
        let back = Embeddings::load_json(&path).unwrap();
        assert!(next.max_abs_diff(&back) < 1e-12);
        assert!(!tmp.exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_json_rejects_shape_lies() {
        let err = load_error(
            "bad-shape.json",
            r#"{"format":"viralcast-embeddings-v1","n":3,"k":2,"a":[1.0],"b":[1.0]}"#,
        );
        assert!(
            err.to_string().contains("do not match the declared 3 × 2"),
            "{err}"
        );
    }

    #[test]
    fn load_json_rejects_a_missing_format_tag() {
        let err = load_error("untagged.json", r#"{"n":1,"k":1,"a":[1.0],"b":[1.0]}"#);
        assert!(err.to_string().contains("missing format tag"), "{err}");
    }

    #[test]
    fn load_json_rejects_a_foreign_format_tag() {
        let err = load_error(
            "foreign.json",
            r#"{"format":"viralcast-cascades-v1","n":1,"k":1,"a":[1.0],"b":[1.0]}"#,
        );
        assert!(
            err.to_string()
                .contains("does not match \"viralcast-embeddings-v1\""),
            "{err}"
        );
    }

    #[test]
    fn load_json_rejects_truncated_files() {
        let err = load_error(
            "truncated.json",
            r#"{"format":"viralcast-embeddings-v1","n":4,"#,
        );
        assert!(err.to_string().contains("not a parseable"), "{err}");
    }

    #[test]
    fn load_json_reports_missing_files_as_io() {
        let missing = std::env::temp_dir().join("viralcast-embed-test-does-not-exist.json");
        assert!(matches!(
            Embeddings::load_json(&missing),
            Err(EmbeddingFileError::Io(_))
        ));
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = Embeddings::random(3, 2, 0.1, 1.0, &mut rng);
        let json = serde_json::to_string(&e).unwrap();
        let back: Embeddings = serde_json::from_str(&json).unwrap();
        // JSON float printing may drop the last ulp; structural equality
        // up to 1e-12 is what persistence needs.
        assert_eq!((back.node_count(), back.topic_count()), (3, 2));
        assert!(e.max_abs_diff(&back) < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// reorder/restore are mutually inverse for any permutation.
    #[test]
    fn permutation_round_trip() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..20);
            let k = rng.gen_range(1usize..5);
            let e = Embeddings::random(n, k, 0.1, 1.0, &mut rng);
            // Fisher–Yates shuffle from the same rng.
            let mut layout: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                layout.swap(i, j);
            }
            assert_eq!(e.reorder(&layout).restore(&layout), e, "case {case}");
            assert_eq!(e.restore(&layout).reorder(&layout), e, "case {case}");
        }
    }
}
