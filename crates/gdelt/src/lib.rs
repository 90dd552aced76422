//! A synthetic GDELT-like news-mention substrate.
//!
//! The paper's real-data experiments run on the Global Database of
//! Events, Language and Tone — tens of thousands of news sites, millions
//! of events, accessed through Google BigQuery. That dataset is a paid,
//! network-backed service; this crate builds the closest synthetic
//! equivalent that exercises the same code paths and reproduces the
//! three properties Section II highlights:
//!
//! 1. **Short event life cycle** — events are reported within an
//!    observation window of ~72 hours, most mentions landing early.
//! 2. **Regional locality** — sites live in regional blocks (US, Europe,
//!    Australia, a mixed rest); cascades mostly stay within a region.
//! 3. **Matthew effect** — site popularity follows a power law; popular
//!    sites are proportionally more influential and seed more events.
//!
//! The ground truth is the paper's own generative model: sites carry
//! planted influence/selectivity vectors, and events spread along a
//! regional co-follow graph with exponential delays of rate
//! `⟨A_u, B_v⟩`. The inference stage therefore has a well-defined target,
//! exactly as in the SBM experiments, while the *data shape* (mention
//! records of `(site, event, hour)`) matches what the paper pulled from
//! BigQuery.
//!
//! * [`site`] — news sites with region, language, popularity.
//! * [`records`] — the mention table plus its aggregations (reports per
//!   site, per-event site sets, conversion to cascades).
//! * [`generator`] — the world builder and event simulator.
//! * [`query`] — a small query layer standing in for the SQL the
//!   authors ran (top-k sites, event sampling, co-report counts).

#![warn(missing_docs)]

pub mod generator;
pub mod query;
pub mod records;
pub mod site;

pub use generator::{GdeltConfig, GdeltWorld};
pub use records::{Mention, MentionTable};
pub use site::{NewsSite, Region};
