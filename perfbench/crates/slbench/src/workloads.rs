//! The three benchmark workloads and the systems they run.
//!
//! Every workload is an open loop: arrivals are fixed in simulated time by
//! the trace generators, so the replay can never run "late".
//! [`Workload::scenario`] turns a seed into a ready [`Scenario`];
//! [`Size::Shrunk`] keeps the fleet and configuration on a fraction of the
//! traffic, for the benchmark's own tests.

use std::fmt;

use cluster::{
    CheckpointConfig, ClusterSpec, DistConfig, NodeId, Scenario, SessionConfig, WorldConfig,
};
use hwmodel::ModelSpec;
use simcore::time::{SimDuration, SimTime};
use workload::datasets::Dataset;
use workload::serverless::TraceSpec;
use workload::SessionSpec;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §IX-A testbed, overloaded: SLINFER's `core` does the
    /// host work.
    ZooOverload,
    /// A day on a 300-GPU fleet under `sllm`: the event loop, event queue,
    /// `World` indexes and metrics records do the host work.
    FleetDay,
    /// Chat sessions over a serverless background with a node failure and
    /// a drain: the only workload that runs checkpoint tiers,
    /// distribution and sessions.
    ChatChurn,
}

/// Which serving system replays a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// SLINFER with its default configuration (the `core` crate).
    Slinfer,
    /// The ServerlessLLM baseline (the `baselines` crate).
    Sllm,
}

/// Full benchmark size, or a shrunken one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// The same fleet and configuration on a few percent of the traffic.
    Shrunk,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ZooOverload,
        Workload::FleetDay,
        Workload::ChatChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooOverload => "zoo_overload",
            Workload::FleetDay => "fleet_day",
            Workload::ChatChurn => "chat_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system under test: the one whose replay is timed. Where it is
    /// SLINFER, `sllm` replays the same traces too (untimed) for
    /// `slo_met_vs_sllm` and the `baselines.*` metrics.
    pub fn system(self) -> System {
        match self {
            Workload::ZooOverload | Workload::ChatChurn => System::Slinfer,
            Workload::FleetDay => System::Sllm,
        }
    }

    /// Traces per run. Host time and simulated outcomes vary from trace to
    /// trace (most for SLINFER on an overloaded cluster), so a run pools
    /// several; the counts keep each run under a minute.
    pub fn pool(self) -> usize {
        match self {
            Workload::ZooOverload => 6,
            Workload::FleetDay => 3,
            Workload::ChatChurn => 18,
        }
    }

    /// Builds the workload's scenario for one trace seed.
    pub fn scenario(self, seed: u64, size: Size) -> Scenario {
        // Shrunken runs keep the fleet and configuration and cut traffic.
        let load = match size {
            Size::Full => 1.0,
            Size::Shrunk => 0.05,
        };
        match self {
            Workload::ZooOverload => zoo_overload(seed, load),
            Workload::FleetDay => fleet_day(seed, load),
            Workload::ChatChurn => chat_churn(seed, load),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn replicas(n: usize) -> Vec<ModelSpec> {
    let base = ModelSpec::llama2_7b();
    (0..n).map(|i| base.replica(i)).collect()
}

fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::default()
    }
}

/// 4 AMX-CPU + 4 A100 nodes, 128 Llama-2-7B replicas, the 30-minute
/// Azure-like trace (~9.4k requests).
fn zoo_overload(seed: u64, load: f64) -> Scenario {
    Scenario::new(ClusterSpec::heterogeneous(4, 4), replicas(128))
        .config(world_cfg(seed))
        .workload(
            TraceSpec::azure_like(128, seed)
                .with_load_scale(load)
                .generate(),
        )
}

/// 300 A100 nodes, 150 replicas, one simulated day of ~120k requests with
/// the `scale` experiment's world configuration.
fn fleet_day(seed: u64, load: f64) -> Scenario {
    const NODES: usize = 300;
    const MODELS: usize = 150;
    const REQUESTS: f64 = 120_000.0;
    let mut cfg = world_cfg(seed);
    cfg.keep_alive = SimDuration::from_secs(600);
    cfg.sample_period = SimDuration::from_secs(10);
    cfg.usage_sample_stride = 60;
    let trace = TraceSpec {
        n_models: MODELS as u32,
        duration: SimDuration::from_secs(86_400),
        requests_per_model: REQUESTS * load / MODELS as f64,
        zipf_s: 1.05,
        burst_fraction: 0.5,
        burst_gap_s: 0.3,
        dataset: Dataset::AzureConv,
        seed,
    }
    .generate();
    Scenario::new(ClusterSpec::heterogeneous(0, NODES), replicas(MODELS))
        .config(cfg)
        .workload(trace)
}

/// 4 CPU + 8 GPU nodes, 32 replicas, two hours of chat sessions merged
/// with an Azure-like background (~7.7k requests); tiered checkpoints,
/// full distribution, session reuse; GPU node 4 fails at 600 s and GPU
/// node 5 drains at 900 s.
///
/// Both generators run at half their default rate. At the full rate
/// (~15.4k requests) SLINFER overloads this fleet and its host time turns
/// heavy-tailed — 4 to 21 s per replay, some traces spending 1.4M calls
/// in `on_alloc_failure` — which no affordable pool steadies; overload
/// cost is `zoo_overload`'s subject, state churn is this one's.
fn chat_churn(seed: u64, load: f64) -> Scenario {
    const MODELS: u32 = 32;
    const GB: u64 = 1_000_000_000;
    let window = SimDuration::from_secs(2 * 3600);
    // Both generators default to a 30-minute window: twice their volume
    // over four times the window halves their arrival rates.
    let scale = 2.0 * load;
    let mut chat = SessionSpec::chat_like(MODELS, seed).with_load_scale(scale);
    chat.duration = window;
    let mut background = TraceSpec::azure_like(MODELS, seed.wrapping_add(1)).with_load_scale(scale);
    background.duration = window;
    let mut cfg = world_cfg(seed);
    cfg.keep_alive = SimDuration::from_secs(600);
    Scenario::new(ClusterSpec::heterogeneous(4, 8), replicas(MODELS as usize))
        .config(cfg)
        .checkpoints(CheckpointConfig::tiered(60 * GB, Some(200 * GB)))
        .dist(DistConfig::full())
        .sessions(SessionConfig::reuse(1.0))
        .workload(chat.generate())
        .workload(background.generate())
        .fail_at(SimTime::from_secs(600), NodeId(4))
        .drain_at(SimTime::from_secs(900), NodeId(5))
}
