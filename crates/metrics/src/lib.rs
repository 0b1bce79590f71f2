//! # mlq-metrics — evaluation metrics from the paper
//!
//! Implements the measures Section 3 and Section 5.1 of the EDBT 2004 MLQ
//! paper use to compare cost-modeling methods:
//!
//! * the **normalized absolute error** (NAE, Eq. 10)
//!   `NAE(Q) = Σ|PC(q) − AC(q)| / Σ AC(q)` — robust both to low absolute
//!   costs (unlike relative error) and to cross-dataset comparison (unlike
//!   unnormalized absolute error);
//! * **learning curves** (Experiment 4): windowed NAE as a function of the
//!   number of query points processed.
//!
//! APC / AUC (Eqs. 1–2) are recorded by the models themselves (see
//! `mlq_core::ModelCounters`); this crate turns them into report rows
//! and exposes the ratios as pure functions ([`apc`], [`auc`]) over any
//! per-operation cost series, plus the bake-off's cold-start
//! [`feedbacks_to_convergence`] measure.
//!
//! ```
//! use mlq_metrics::{nae, LearningCurve, OnlineNae};
//!
//! // Batch NAE over (predicted, actual) pairs:
//! let err = nae(&[(9.0, 10.0), (5.0, 5.0)]).unwrap();
//! assert!((err - 1.0 / 15.0).abs() < 1e-12);
//!
//! // Streaming, with a learning curve sampled every 2 observations:
//! let mut acc = OnlineNae::new();
//! let mut curve = LearningCurve::new(2);
//! for (p, a) in [(0.0, 10.0), (8.0, 10.0), (10.0, 10.0), (10.0, 10.0)] {
//!     acc.record(p, a);
//!     curve.record(p, a);
//! }
//! assert_eq!(curve.points().len(), 2);
//! assert!(curve.points()[1].nae < curve.points()[0].nae); // it learned
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod learning;
mod nae;
mod ops;

pub use learning::{LearningCurve, LearningPoint};
pub use nae::{nae, OnlineNae};
pub use ops::{apc, auc, feedbacks_to_convergence};
