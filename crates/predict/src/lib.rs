//! Viral-cascade prediction from early adopters (Section V).
//!
//! Once embeddings are inferred from historical cascades, a *new*
//! cascade's fate is predicted from its early adopters alone: the
//! features `diverA`, `normA` and `maxA` (eqs. 17–19) summarise the
//! early adopters' influence vectors, and a linear SVM classifies
//! whether the final size will exceed a threshold. Evaluation follows
//! the paper: F1-measure under 10-fold cross-validation, swept across
//! size thresholds (Figures 9 and 12).
//!
//! * [`features`] — the three influence features of early adopters.
//! * [`scaler`] — feature standardisation (zero mean, unit variance).
//! * [`svm`] — a from-scratch linear SVM trained by Pegasos-style
//!   stochastic sub-gradient descent; "we use a simple classifier
//!   because it can demonstrate that these features are representative".
//! * [`metrics`] — confusion matrices, precision/recall/F1.
//! * [`cv`] — stratified k-fold cross-validation.
//! * [`pipeline`] — the end-to-end Figure 9/12 evaluation: extract
//!   features from test cascades, sweep thresholds, report F1 per
//!   threshold next to the size histogram.

#![warn(missing_docs)]

pub mod cv;
pub mod features;
pub mod metrics;
pub mod pipeline;
pub mod scaler;
pub mod svm;

pub use cv::{cross_validate, CvReport};
pub use features::{extract_features, CascadeFeatures};
pub use metrics::{BinaryConfusion, F1Score};
pub use pipeline::{threshold_sweep, PredictionTask, SweepPoint};
pub use scaler::StandardScaler;
pub use svm::{LinearSvm, SvmConfig};
