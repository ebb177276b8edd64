//! Experiment harness for the SLINFER reproduction.
//!
//! Each table/figure of the paper is one [`registry`] entry, listed and
//! run by the `bench` multi-runner (`src/bin/bench.rs`). This library
//! holds the shared machinery:
//!
//! - [`cli`] — the unified `--seed`/`--quick`/`--threads`/`--json` command
//!   line every `bench` command accepts.
//! - [`sweep`] — the declarative (point × system × seed) [`sweep::Sweep`]
//!   grid and its parallel, deterministic driver (progress/ETA on stderr
//!   via [`sweep::Sweep::run_cli`]). Cells build a composable
//!   [`cluster::Scenario`] (fleet × workload × environment) and hand it to
//!   the system axis.
//! - [`runner`] — the [`System`] enum (sllm / sllm+c / sllm+c+s / SLINFER /
//!   PD variants / NEO+) with per-system cluster construction and the
//!   single [`runner::System::run_scenario`] entry point, so every
//!   experiment exercises every system through identical machinery.
//! - [`report`] — the [`Report`] sink experiments append to (tables,
//!   prose, paper notes, JSON blobs); presentation is serial and ordered,
//!   which keeps output byte-identical at any worker count.
//! - [`memo`] — per-cell memoization for `bench all`: identical
//!   (point × system × seed) cells an earlier experiment in the same
//!   invocation already ran are served from cache, byte-identically.
//! - [`registry`] — the experiment registry tooling enumerates.
//! - [`experiments`] — the 26 paper experiments plus the scenario suite
//!   (`slo_mix`, `fault_drain`, `mixed_arrivals`).
//! - [`zoo`] — model-zoo builders (replica zoos, popularity mixes).

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod memo;
pub mod registry;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod zoo;

pub use cli::Cli;
pub use registry::{find, run_experiment, Experiment, REGISTRY};
pub use report::{Report, Table};
pub use runner::{System, SystemResult};
pub use sweep::{Scenario, Sweep, SweepResults};
