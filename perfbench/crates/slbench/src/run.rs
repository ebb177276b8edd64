//! Building, replaying and timing one workload trace.
//!
//! Setup is split the way the metrics report it: trace generation and
//! `Scenario` composition ([`generate`]), then `Simulation::new` plus the
//! scenario's event schedule ([`Replay::build_s`], [`build_only`]). A
//! replay times `Simulation::run` alone — from the first simulated event
//! to the returned `RunMetrics`.

use std::time::Instant;

use baselines::sllm::{Sllm, SllmConfig};
use cluster::{Policy, RunMetrics, Scenario, Simulation};
use slinfer::{Slinfer, SlinferConfig};
use workload::request::Trace;

use crate::tracer::{Spans, Traced};
use crate::workloads::{Size, System, Workload};

/// A generated workload instance: the scenario and the trace it replays.
pub struct Generated {
    /// The composed scenario (fleet, configuration, events).
    pub scenario: Scenario,
    /// The merged trace `Scenario::run` would replay.
    pub trace: Trace,
    /// Host seconds spent generating and composing.
    pub generate_s: f64,
}

/// Seed → scenario and merged trace, timed.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Generated {
    // detlint::allow(D003, "setup timing for the benchmark's setup_s metric; never fed into the simulation")
    let t0 = Instant::now();
    let scenario = workload.scenario(seed, size);
    let trace = scenario.merged_trace();
    Generated {
        scenario,
        trace,
        generate_s: t0.elapsed().as_secs_f64(),
    }
}

/// The outcome of one replay.
pub struct Replay {
    /// The simulation's metrics.
    pub metrics: RunMetrics,
    /// Host seconds spent in `Simulation::new` and event scheduling.
    pub build_s: f64,
    /// Host seconds spent in `Simulation::run`.
    pub run_s: f64,
}

fn build<P: Policy>(g: &Generated, policy: P) -> (Simulation<P>, f64) {
    let sc = &g.scenario;
    // detlint::allow(D003, "setup timing for the benchmark's setup_s metric; never fed into the simulation")
    let t0 = Instant::now();
    let mut sim = Simulation::new(sc.cluster(), sc.models().to_vec(), sc.cfg().clone(), policy);
    for (at, ev) in sc.events() {
        sim.world.push_cluster_event(*at, ev.clone());
    }
    (sim, t0.elapsed().as_secs_f64())
}

fn replay_with<P: Policy>(g: &Generated, policy: P) -> Replay {
    let (sim, build_s) = build(g, policy);
    // detlint::allow(D003, "run_s: host time of the replay, the benchmark's headline metric")
    let t1 = Instant::now();
    let metrics = sim.run(&g.trace);
    let run_s = t1.elapsed().as_secs_f64();
    Replay {
        metrics,
        build_s,
        run_s,
    }
}

/// Host seconds to build (and not run) `g`'s simulation under `system`.
pub fn build_only(g: &Generated, system: System) -> f64 {
    match system {
        System::Slinfer => build(g, Slinfer::new(SlinferConfig::default())).1,
        System::Sllm => build(g, Sllm::new(SllmConfig::sllm())).1,
    }
}

/// Replays `g` under `system`, untraced.
pub fn replay(g: &Generated, system: System) -> Replay {
    match system {
        System::Slinfer => replay_with(g, Slinfer::new(SlinferConfig::default())),
        System::Sllm => replay_with(g, Sllm::new(SllmConfig::sllm())),
    }
}

/// Replays `g` under `system` with every policy callback traced; the
/// spans land in `spans`.
pub fn replay_traced(g: &Generated, system: System, spans: &mut Spans) -> Replay {
    match system {
        System::Slinfer => replay_with(
            g,
            Traced::new(Slinfer::new(SlinferConfig::default()), spans),
        ),
        System::Sllm => replay_with(g, Traced::new(Sllm::new(SllmConfig::sllm()), spans)),
    }
}

/// Peak resident set of this process in MB (`VmHWM`); `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}
