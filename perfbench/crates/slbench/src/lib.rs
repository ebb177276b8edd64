//! The repository benchmark: simulator host speed and simulated serving
//! quality on three workloads (`zoo_overload`, `fleet_day`,
//! `chat_churn`).
//!
//! The benchmark drives the simulator only through its public entry
//! points — the `workload` generators, `cluster::Scenario` /
//! `cluster::Simulation`, and the `cluster::Policy` callbacks — and
//! changes nothing inside it. See `perfbench/README.md` for the command,
//! the metric catalogue and how to read the numbers.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod gate;
pub mod measure;
pub mod run;
pub mod tracer;
pub mod workloads;
