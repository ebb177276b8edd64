//! Heterogeneous cluster abstraction and the event-driven serving simulator.
//!
//! SLINFER "abstracts heterogeneous hardware into CPU/GPU nodes" (§V); this
//! crate provides that abstraction plus the simulation driver every serving
//! policy runs under:
//!
//! - [`node`] — [`NodeSpec`]/[`ClusterSpec`]: nodes with execution *slots*
//!   (full-node for SLINFER and the exclusive baselines; two half-node slots
//!   for `sllm+c+s` static sharing) and a physical memory ledger.
//! - [`checkpoint`] — [`CheckpointConfig`]/[`CheckpointStore`]: the
//!   per-node tiered checkpoint cache (HBM/DRAM/SSD/remote) behind
//!   locality-aware cold starts; the default configuration reproduces the
//!   flat legacy loader bit for bit.
//! - [`world`] — [`World`]: the live cluster state (instances, committed
//!   memory, clock, RNG, event queue) and the *only* API policies may use to
//!   act: admit requests, start iterations, create/unload instances, issue
//!   KV rescales, set timers. Physical memory is enforced here — an
//!   uncoordinated scale-up that would overflow a node is rejected and
//!   counted as an OOM incident (§VII-C's hazard).
//! - [`policy`] — the [`Policy`] trait: the callback surface (arrivals,
//!   slot-free, load/scale completions, keep-alive, timers) that SLINFER and
//!   all baselines implement.
//! - [`admission`] — the request-lifecycle mechanics every policy shares:
//!   the [`AdmissionQueue`] with its TTFT drop timers, the PD [`Handoff`],
//!   and the longest-headroom [`eviction_victim`].
//! - [`driver`] — [`Simulation`]: the deterministic event loop, including
//!   cluster-lifecycle events (node drain/fail/join) and their policy hook.
//! - [`scenario`] — [`Scenario`]: composable run construction over four
//!   axes (fleet, SLO-classed workload segments, a timed [`ClusterEvent`]
//!   schedule, and the policy the run is handed to).
//! - [`sessions`] — [`SessionConfig`]: multi-turn prefix reuse — parked
//!   per-session KV, affinity routing with a stickiness knob, and priced
//!   cross-instance KV migration; off by default.
//! - [`metrics`] — [`RunMetrics`]: per-request SLO records, time-weighted
//!   node usage, memory/batch samples, and the summary queries the
//!   experiment harness prints (SLO-met requests, TTFT CDF, decode speed
//!   per node, average nodes used, …).

#![forbid(unsafe_code)]

pub mod admission;
pub mod checkpoint;
pub mod dist;
pub mod driver;
pub mod metrics;
pub mod node;
pub mod policy;
pub mod scenario;
pub mod sessions;
pub mod world;

pub use admission::{eviction_victim, AdmissionQueue, Handoff};
pub use checkpoint::{CheckpointConfig, CheckpointStore};
pub use dist::{CheckpointDirectory, DistConfig, TransferPlan, TransferSource};
pub use driver::Simulation;
pub use hwmodel::CheckpointTier;
pub use metrics::{RequestRecord, RunMetrics};
pub use node::{ClusterSpec, NodeId, NodeSpec};
pub use policy::Policy;
pub use scenario::Scenario;
pub use sessions::SessionConfig;
pub use world::{ClusterEvent, MemError, NodeHealth, World, WorldConfig};

// The bench sweep driver fans independent simulations out across worker
// threads: each cell's Simulation (world + policy) is built and consumed
// on one worker and only the RunMetrics travel back to the collector.
// These checks keep that contract: a non-Send field (Rc, RefCell, raw
// pointer) sneaking into the world or metrics would stop the whole figure
// suite from parallelizing.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunMetrics>();
    assert_send::<World>();
    assert_send::<ClusterSpec>();
    assert_send::<WorldConfig>();
};

/// Compile-time witness that a simulation over any `Send` policy can move
/// to a worker thread.
#[allow(dead_code)]
fn simulation_is_send<P: Policy + Send>(s: Simulation<P>) -> impl Send {
    s
}
