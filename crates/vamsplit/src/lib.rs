//! # hdidx-vamsplit
//!
//! The index-structure substrate of the reproduction: a **bulk-loaded
//! VAMSplit R\*-tree** in the style of White & Jain (SPIE'96) built with the
//! top-down recursive partitioning algorithm of Berchtold, Böhm & Kriegel
//! (EDBT'98), exactly as the paper (Lang & Singh, SIGMOD 2001, §4.1)
//! prescribes:
//!
//! * the tree is built level-wise top-down; at every node the required
//!   fanout is derived from the subtree capacities,
//! * data is partitioned by recursive binary splits along the dimension of
//!   **maximum variance**, with the split rank chosen so that the left side
//!   exactly fills its subtrees (Hoare's *find* / quickselect),
//! * leaf pages are minimal bounding rectangles over their points.
//!
//! The same loader builds both the full index and the paper's *mini-index*:
//! [`bulkload::bulk_load_scaled`] accepts a *virtual* full-scale cardinality
//! so a sample tree replicates the topology (node counts, fanouts, height)
//! of the full tree while holding only sampled points — the structural
//! similarity requirement of §3.1.
//!
//! Query support ([`query`]) provides optimal best-first k-NN search
//! (Hjaltason–Samet), range counting, exact linear-scan k-NN (the oracle
//! for query radii), and the sphere/leaf intersection counting that
//! the prediction model reduces page-access estimation to.
//!
//! Two additional bulk-loaded structures ([`kdtree`], [`sstree`]) exercise
//! the paper's §4.7 claim that the prediction technique applies to any
//! fixed-capacity paged structure, and [`vafile`] is the scan-based
//! negative control the paper excludes. [`multistep`] is the optimal
//! multi-step search over a dimension-prefix index, the reference Fig 14's
//! access counts are tested against.

pub mod bulkload;
pub mod kdtree;
pub mod multistep;
pub mod query;
pub mod split;
pub mod sstree;
pub mod topology;
pub mod tree;
pub mod vafile;

pub use bulkload::{bulk_load, bulk_load_scaled};
pub use topology::{PageConfig, Topology};
pub use tree::{Node, NodeKind, RTree};
