//! `hpcbd-cluster` — the modeled platform and process placement.
//!
//! The paper runs everything on SDSC Comet so that the HPC and Big Data
//! stacks are compared fairly on one machine. This crate plays that role
//! for the simulation: it owns the canonical Comet description (Table I),
//! the placement policy ("N nodes, P processes per node" as used in every
//! experiment), and the SPMD launcher ([`SpmdJob`]) that `minimpi` and
//! `minshmem` share.

#![warn(missing_docs)]

pub mod launch;
pub mod placement;
pub mod platform;

pub use launch::{launch, SpmdJob, SpmdOutput};
pub use placement::{Assignment, Placement, RankMap};
pub use platform::{comet_summary, ClusterSpec};
