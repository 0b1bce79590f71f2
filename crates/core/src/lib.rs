//! # mlq-core — the Memory-Limited Quadtree
//!
//! This crate implements the central contribution of *"Self-tuning UDF Cost
//! Modeling Using the Memory-Limited Quadtree"* (He, Lee & Snapp, EDBT 2004):
//! a self-tuning execution-cost model for user-defined functions (UDFs) that
//! runs inside a query optimizer under a strict memory budget.
//!
//! Each UDF execution is mapped to a point in a `d`-dimensional *model
//! space*. A quadtree recursively partitions the entire space into `2^d`
//! equal blocks; every node stores only *summary statistics* of the cost
//! values observed in its block — the sum, the count, and the sum of squares
//! — never the individual data points. Predictions read the deepest block on
//! the query point's root-to-leaf path that has seen at least `β` points and
//! return its average (paper Fig. 3). Observed actual costs are inserted
//! back into the tree (paper Fig. 4) using either the *eager* strategy
//! (always partition down to depth `λ`) or the *lazy* strategy (partition a
//! block only once its sum of squared errors exceeds `α·SSE(root)`). When
//! the tree outgrows its byte budget it is *compressed* (paper Fig. 6):
//! leaves are evicted in ascending order of
//! `SSEG(b) = C(b)·(AVG(parent) − AVG(b))²` (paper Eq. 9), the increase in
//! total expected prediction error caused by dropping the leaf.
//!
//! ## Quick example
//!
//! ```
//! use mlq_core::{MemoryLimitedQuadtree, MlqConfig, Space, InsertionStrategy};
//!
//! // A 2-D model space, 4 KiB budget, lazy insertion.
//! let space = Space::cube(2, 0.0, 1000.0).unwrap();
//! let config = MlqConfig::builder(space)
//!     .memory_budget(4096)
//!     .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
//!     .build()
//!     .unwrap();
//! let mut model = MemoryLimitedQuadtree::new(config).unwrap();
//!
//! // Feedback loop: predict, execute, observe.
//! assert!(model.predict(&[10.0, 20.0]).unwrap().is_none()); // no data yet
//! model.insert(&[10.0, 20.0], 42.0).unwrap();
//! let p = model.predict(&[11.0, 19.0]).unwrap();
//! assert_eq!(p, Some(42.0));
//! ```
//!
//! The [`CostModel`] trait is the interface shared with the static-histogram
//! baselines in `mlq-baselines`, so experiment harnesses can treat every
//! method uniformly.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod blocks;
mod compress;
mod config;
mod counters;
mod detail;
mod error;
mod fleet;
mod frozen;
mod guard;
mod merge;
mod model;
mod node;
mod persist;
mod render;
mod space;
mod summary;
mod tree;
mod validate;

pub use blocks::BlockView;
pub use compress::CompressionReport;
pub use config::{InsertionStrategy, MlqConfig, MlqConfigBuilder};
pub use counters::ModelCounters;
pub use detail::PredictionDetail;
pub use error::MlqError;
pub use fleet::{evict_to_global_budget, FleetEvictionReport, FleetModel, LeafSseg, ModelEviction};
pub use frozen::{BatchPlan, FrozenTree};
pub use guard::{BreakerState, GuardConfig, GuardCounters, GuardState, GuardedModel, PointPolicy};
pub use merge::DeltaTracker;
pub use model::{CostModel, TrainableModel};
pub use node::NodeView;
pub use persist::{
    crc32_ieee, open_frame, seal_frame, RestoreOutcome, TreeSnapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use space::{GridPoint, Space, GRID_BITS, MAX_DIMS};
pub use summary::{ssenc, Summary};
pub use tree::{InsertOutcome, MemoryLimitedQuadtree};

/// Byte cost accounted for every quadtree node (summaries + bookkeeping).
///
/// The paper charges the model for the memory it would occupy inside an
/// optimizer's metadata area. We use a deterministic, platform-independent
/// accounting model rather than `size_of`, so experiments are reproducible
/// across targets: three `f64` summary fields (24 B), a parent pointer and
/// slot index (6 B), depth and child count (3 B), the child-array pointer
/// (8 B), padding to 8-byte alignment.
pub const NODE_BYTES: usize = 48;

/// Accounted byte cost of the child-pointer array of an internal node.
///
/// A node only pays this once it has at least one child (leaves — the
/// majority of nodes — store no child array). Four bytes per slot, `2^d`
/// slots.
#[must_use]
pub const fn child_array_bytes(dims: usize) -> usize {
    4 * (1usize << dims)
}
