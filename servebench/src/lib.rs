//! Closed-loop serving benchmark of the HDC workspace.
//!
//! One command runs one of four seeded, fixed-work workloads against the
//! serving stack through its public API only, checks every output against
//! an in-process reference, and prints the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run) as its last stdout line.
//! See `servebench/README.md` for the workloads, metrics and noise
//! evidence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod host;
pub mod plan;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
