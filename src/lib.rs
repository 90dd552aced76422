//! Workspace root: shared helpers for the runnable examples and the
//! cross-crate integration tests. The library surface of the project
//! itself lives in the [`viralcast`] crate — this crate only re-exports
//! the tiny flag parser the example binaries share.

pub mod cli;

pub use viralcast;
