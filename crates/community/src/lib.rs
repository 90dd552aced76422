//! Community structure machinery for the viralcast workspace.
//!
//! Two distinct clustering problems appear in the paper and both live
//! here:
//!
//! 1. **Node communities for parallelisation** (Section IV-B): SLPA
//!    ([`slpa`]) partitions the frequent co-occurrence graph into the
//!    dense sub-modules that Algorithm 1 processes independently, and the
//!    balanced binary merge tree ([`hierarchy`]) drives Algorithm 2's
//!    level-by-level parallel schedule.
//! 2. **Cascade clustering for data exploration** (Section II, Figure 1):
//!    agglomerative clustering with the Ward criterion ([`ward`]) over
//!    pairwise Jaccard distances ([`jaccard`]) between the reporting-site
//!    sets of news events, rendered as a dendrogram ([`dendrogram`]).
//!
//! [`partition`] holds the shared [`Partition`] type and [`metrics`] the
//! quality measure (NMI) used to validate detection against planted SBM
//! ground truth.

#![warn(missing_docs)]

pub mod dendrogram;
pub mod hierarchy;
pub mod jaccard;
pub mod metrics;
pub mod partition;
pub mod slpa;
pub mod ward;

pub use dendrogram::Dendrogram;
pub use hierarchy::MergeHierarchy;
pub use partition::Partition;
pub use slpa::{Slpa, SlpaConfig};
pub use ward::{ward_linkage, Merge};
