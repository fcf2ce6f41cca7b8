//! # seqge-eval — downstream evaluation of graph embeddings
//!
//! The paper's accuracy metric (§4.3): feed the trained embedding into a
//! one-vs-rest logistic regression, 90 % train / 10 % test, and report the
//! F1 score averaged over three trials.
//!
//! * [`logreg`] — one-vs-rest logistic regression trained by SGD, one
//!   independent binary problem per class.
//! * [`split`] — seeded stratified train/test splitting.
//! * [`metrics`] — micro/macro F1 and the confusion matrix. (For single-label
//!   multiclass, micro-F1 equals accuracy; both are reported.)
//! * [`harness`] — multi-trial averaging, mirroring the paper's 3-trial mean.

#![forbid(unsafe_code)]

pub mod clustering;
pub mod harness;
pub mod linkpred;
pub mod logreg;
pub mod metrics;
pub mod split;

pub use clustering::{clustering_nmi, kmeans, nmi, KMeans};
pub use harness::{evaluate_embedding, EvalConfig, EvalResult};
pub use linkpred::{pairwise_auc, EdgeOp, LinkPredSet, Scorer};
pub use logreg::{LogRegConfig, OneVsRest};
pub use metrics::{confusion_matrix, f1_scores, F1};
pub use split::train_test_split;
