//! The repo's benchmark as a library: the `naiad-bench` binary is a thin
//! command line over these modules, and the smoke test reads the same
//! vocabulary ([`spec`]) the binary reports with.

#![forbid(unsafe_code)]

pub mod diff;
pub mod json;
pub mod layers;
pub mod probe;
pub mod report;
pub mod runner;
pub mod spec;
pub mod trace;
pub mod workloads;
