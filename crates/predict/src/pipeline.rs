//! The end-to-end prediction evaluation of Figures 9 and 12.
//!
//! Protocol (Section VI-A): embeddings are inferred from the first part
//! of the corpus; for each held-out cascade only the infections within
//! the first `early_fraction` of the observation window are revealed
//! (2/7 on SBM, the first 5 hours on GDELT); the three features of those
//! early adopters feed a linear SVM that classifies whether the final
//! size clears a threshold; F1 is measured by stratified 10-fold CV and
//! swept across thresholds.

use crate::cv::cross_validate;
use crate::features::extract_features;
use crate::svm::SvmConfig;
use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_propagation::CascadeSet;

/// What part of each test cascade the predictor may see.
#[derive(Clone, Copy, Debug)]
pub struct PredictionTask {
    /// The observation-window length used when the cascades were
    /// generated (sets the early-adopter cutoff scale).
    pub window: f64,
    /// Fraction of the window revealed to the predictor (paper: 2/7).
    pub early_fraction: f64,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// SVM hyper-parameters.
    pub svm: SvmConfig,
    /// Seed for fold assignment.
    pub seed: u64,
    /// Append the raw early-adopter count as a fourth feature. The
    /// paper uses exactly `diverA`/`normA`/`maxA`; the count is the
    /// classic feature-based baseline (Cheng et al.) and is exposed for
    /// the feature-set ablation bench. Default `false`.
    pub include_adopter_count: bool,
}

impl Default for PredictionTask {
    fn default() -> Self {
        PredictionTask {
            window: 1.0,
            early_fraction: 2.0 / 7.0,
            folds: 10,
            svm: SvmConfig::default(),
            seed: 0xF1_60,
            include_adopter_count: false,
        }
    }
}

/// Extracted per-cascade data: features of the early adopters plus the
/// final cascade size.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Row-major feature matrix `[diverA, normA, maxA]`.
    pub features: Vec<Vec<f64>>,
    /// Final cascade sizes, parallel to `features`.
    pub sizes: Vec<usize>,
}

impl Dataset {
    /// Labels for a size threshold: `+1` (viral) iff `size > threshold`.
    pub fn labels_for_threshold(&self, threshold: usize) -> Vec<i8> {
        self.sizes
            .iter()
            .map(|&s| if s > threshold { 1 } else { -1 })
            .collect()
    }

    /// The size that puts the top `fraction` of cascades in the positive
    /// class (e.g. `0.2` for the paper's "top 20 %" operating point).
    ///
    /// The target is `m = ⌈fraction·n⌉` positives (at least one), and `q`
    /// is the `m`-th largest size. If the cascades of size `q` end at
    /// rank `m`, the threshold is `q − 1` and exactly `m` are positive.
    /// If a tie block at `q` straddles rank `m`, no threshold gives
    /// exactly `m`: the candidates are `q − 1` (the whole block positive)
    /// and `q` (the whole block negative), and the one whose positive
    /// count is nearer `m` wins. An equal distance goes to `q − 1`, and
    /// `q` is never taken when it would leave no positives.
    ///
    /// Ties are the rule on the synthetic GDELT world: an event floods
    /// every community it reaches, so final sizes come in whole multiples
    /// of `community_size`, and counting the whole block at the cut can
    /// call up to 48 % of the held-out events viral where 20 % is asked for.
    pub fn top_fraction_threshold(&self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        if self.sizes.is_empty() {
            return 0;
        }
        let mut sorted = self.sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let m = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
        let q = sorted[m - 1];
        let above = sorted.partition_point(|&s| s > q);
        let at_least = sorted.partition_point(|&s| s >= q);
        if above > 0 && m - above < at_least - m {
            q
        } else {
            q.saturating_sub(1)
        }
    }
}

/// Extracts the feature/size dataset from held-out cascades using
/// inferred embeddings.
pub fn extract_dataset(
    embeddings: &Embeddings,
    cascades: &CascadeSet,
    task: &PredictionTask,
) -> Dataset {
    let mut features = Vec::with_capacity(cascades.len());
    let mut sizes = Vec::with_capacity(cascades.len());
    for c in cascades.cascades() {
        let adopters: Vec<NodeId> = c
            .early_adopters(task.window, task.early_fraction)
            .iter()
            .map(|i| i.node)
            .collect();
        let mut row = extract_features(embeddings, &adopters).as_array().to_vec();
        if task.include_adopter_count {
            row.push(adopters.len() as f64);
        }
        features.push(row);
        sizes.push(c.len());
    }
    Dataset { features, sizes }
}

/// One point of the Figure 9/12 curve.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Size threshold defining the positive class.
    pub threshold: usize,
    /// Number of positive (viral) cascades at this threshold.
    pub positives: usize,
    /// Cross-validated F1 of the positive class.
    pub f1: f64,
    /// Cross-validated precision.
    pub precision: f64,
    /// Cross-validated recall.
    pub recall: f64,
}

/// Sweeps size thresholds and reports the cross-validated F1 at each —
/// the red curve of Figures 9 and 12. Thresholds where a class is empty
/// are skipped.
pub fn threshold_sweep(
    dataset: &Dataset,
    thresholds: &[usize],
    task: &PredictionTask,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &threshold in thresholds {
        let labels = dataset.labels_for_threshold(threshold);
        let positives = labels.iter().filter(|&&y| y == 1).count();
        if positives == 0 || positives == labels.len() {
            continue;
        }
        let report = cross_validate(&dataset.features, &labels, task.folds, &task.svm, task.seed);
        out.push(SweepPoint {
            threshold,
            positives,
            f1: report.score.f1,
            precision: report.score.precision,
            recall: report.score.recall,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_propagation::{Cascade, Infection};

    /// A toy world where embeddings genuinely predict size: nodes 0–2
    /// are "influencers" with big vectors; cascades seeded by them grow
    /// large.
    fn toy() -> (Embeddings, CascadeSet, PredictionTask) {
        let n = 6;
        let k = 2;
        let mut a = vec![0.1; n * k];
        for u in 0..3 {
            a[u * k] = 3.0 + u as f64; // influencers
        }
        let emb = Embeddings::from_matrices(n, k, a, vec![0.1; n * k]);
        let mut cascades = Vec::new();
        for rep in 0..40 {
            let seed = rep % 6;
            let mut infs = vec![Infection::new(seed as u32, 0.0)];
            let size = if seed < 3 { 5 } else { 2 };
            for j in 1..size {
                let node = (seed + j) % 6;
                infs.push(Infection::new(node as u32, 0.05 * j as f64));
            }
            cascades.push(Cascade::new(infs).unwrap());
        }
        let set = CascadeSet::new(n, cascades);
        let task = PredictionTask {
            window: 1.0,
            early_fraction: 2.0 / 7.0,
            folds: 5,
            svm: SvmConfig::default(),
            seed: 3,
            include_adopter_count: false,
        };
        (emb, set, task)
    }

    #[test]
    fn dataset_shapes_match() {
        let (emb, set, task) = toy();
        let ds = extract_dataset(&emb, &set, &task);
        assert_eq!(ds.features.len(), 40);
        assert_eq!(ds.sizes.len(), 40);
        assert!(ds.features.iter().all(|f| f.len() == 3));
    }

    #[test]
    fn labels_split_by_threshold() {
        let (emb, set, task) = toy();
        let ds = extract_dataset(&emb, &set, &task);
        let labels = ds.labels_for_threshold(3);
        let pos = labels.iter().filter(|&&y| y == 1).count();
        // Seeds 0–2 (size 5 > 3) occur 21 times across 40 reps of the
        // 6-cycle; seeds 3–5 (size 2) the other 19.
        assert_eq!(pos, 21);
    }

    #[test]
    fn top_fraction_threshold_selects_tail() {
        let ds = Dataset {
            features: vec![vec![0.0; 3]; 10],
            sizes: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        };
        let t = ds.top_fraction_threshold(0.2);
        // Top 20% = sizes {10, 9}; threshold 8 puts exactly them positive.
        assert_eq!(t, 8);
        let labels = ds.labels_for_threshold(t);
        assert_eq!(labels.iter().filter(|&&y| y == 1).count(), 2);
    }

    /// `(size, count)` blocks → the threshold and its positive count.
    fn cut(blocks: &[(usize, usize)]) -> (usize, usize) {
        let sizes: Vec<usize> = blocks
            .iter()
            .flat_map(|&(s, c)| std::iter::repeat(s).take(c))
            .collect();
        let ds = Dataset {
            features: vec![vec![0.0; 3]; sizes.len()],
            sizes,
        };
        let t = ds.top_fraction_threshold(0.2);
        let positives = ds
            .labels_for_threshold(t)
            .iter()
            .filter(|&&y| y == 1)
            .count();
        (t, positives)
    }

    #[test]
    fn top_fraction_threshold_takes_the_nearer_side_of_a_tie_block() {
        // 20 cascades in blocks of 40, so ⌈0.2·20⌉ = 4 should be viral.
        // The 4th largest is 80, tied with six more: counting the block
        // makes 10 positive (6 off), excluding it 3 (1 off).
        assert_eq!(cut(&[(200, 1), (120, 2), (80, 7), (40, 10)]), (80, 3));
        // Here the block is the nearer side: 5 (1 off) beats 2 (2 off).
        assert_eq!(cut(&[(160, 2), (80, 3), (40, 15)]), (79, 5));
        // Equal distance, 5 vs 3 against 4: the block stays positive.
        assert_eq!(cut(&[(160, 3), (80, 2), (40, 15)]), (79, 5));
        // The top block straddles the cut: excluding it would leave no
        // positives, so it stays positive however far off it is.
        assert_eq!(cut(&[(80, 10), (40, 10)]), (79, 10));
    }

    #[test]
    fn informative_features_predict_well() {
        let (emb, set, task) = toy();
        let ds = extract_dataset(&emb, &set, &task);
        let points = threshold_sweep(&ds, &[3], &task);
        assert_eq!(points.len(), 1);
        assert!(
            points[0].f1 > 0.9,
            "informative toy world should be predictable, F1 = {}",
            points[0].f1
        );
    }

    #[test]
    fn degenerate_thresholds_skipped() {
        let (emb, set, task) = toy();
        let ds = extract_dataset(&emb, &set, &task);
        // Threshold above every size: no positive class; threshold 0:
        // everything positive. Both skipped.
        let points = threshold_sweep(&ds, &[0, 100], &task);
        assert!(points.is_empty());
    }

    #[test]
    fn sweep_reports_positive_counts() {
        let (emb, set, task) = toy();
        let ds = extract_dataset(&emb, &set, &task);
        let points = threshold_sweep(&ds, &[1, 3], &task);
        for p in &points {
            let expected = ds.sizes.iter().filter(|&&s| s > p.threshold).count();
            assert_eq!(p.positives, expected);
        }
    }

    #[test]
    fn adopter_count_feature_is_opt_in() {
        let (emb, set, mut task) = toy();
        task.include_adopter_count = true;
        let ds = extract_dataset(&emb, &set, &task);
        assert!(ds.features.iter().all(|f| f.len() == 4));
        assert!(ds.features.iter().all(|f| f[3] >= 1.0));
    }

    #[test]
    fn empty_dataset_threshold_is_zero() {
        let ds = Dataset {
            features: vec![],
            sizes: vec![],
        };
        assert_eq!(ds.top_fraction_threshold(0.2), 0);
    }
}
