//! The live cluster: the only surface through which policies act.
//!
//! [`World`] owns nodes (with their physical memory ledgers), all hosted
//! instances, the clock, the event queue, the RNG, and the metrics recorder.
//! Policies receive `&mut World` in their callbacks and use its methods to
//! admit requests, start iterations, create/unload instances, rescale KV
//! grants, and set timers. Ground-truth execution times come from the
//! calibrated [`AnalyticPerf`] model perturbed by [`NoiseModel`] — policies
//! can *estimate* (noiseless) but never observe a duration before it
//! finishes, exactly like a real control plane.
//!
//! Physical memory is enforced at operation-issue time: a scale-up or
//! instance creation that does not fit the node's remaining bytes fails with
//! [`MemError::WouldOom`] and is counted in
//! [`RunMetrics::oom_incidents`](crate::metrics::RunMetrics::oom_incidents).
//! SLINFER's orchestrator (§VII-C) exists to keep that counter at zero.
//!
//! Two mechanisms live in their own files: `instances.rs` holds the
//! instance table and its per-node/slot/model indexes, and `loads.rs` the
//! processor-shared loading channels cold starts run on. `World` composes
//! them, so a policy still sees one facade.

use std::collections::BTreeMap;

use engine::instance::{Instance, InstanceId, InstanceState, IterationKind};
use engine::request::RunningRequest;
use hwmodel::{
    AnalyticPerf, CheckpointTier, HardwareKind, HardwareSpec, ModelSpec, NoiseModel, PerfOracle,
};
use simcore::events::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, RequestId, Slo};

use crate::checkpoint::{CheckpointConfig, CheckpointStore};
use crate::dist::{
    CheckpointDirectory, DistConfig, ReplicaState, TransferPlan, TransferSource,
    KEEPALIVE_DEFER_MAX,
};
use crate::metrics::RunMetrics;
use crate::node::{ClusterSpec, NodeId, NodeSpec};
use crate::sessions::{SessionConfig, AFFINITY_MAX_INFLIGHT};
use workload::request::{Request, SloClass};

mod instances;
mod loads;

pub use instances::Hosted;
use instances::InstanceTable;
use loads::{ActiveLoad, LoadChannels};

/// Extra simulated time allowed after the last arrival before a run is
/// force-terminated and unresolved requests are dropped.
pub const DRAIN_GRACE: SimDuration = SimDuration::from_secs(900);

/// Cross-node KV transfer bandwidth, GB/s: what PD disaggregation's
/// hand-off and session KV migration are priced at (§IX-G uses 100 Gbps ⇒
/// 12.5 GB/s).
pub const KV_TRANSFER_GBPS: f64 = 12.5;

/// Tunable run parameters shared by every policy.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Request SLOs (§IX-A formula by default). This is SLO class 0.
    pub slo: Slo,
    /// SLOs of the additional service classes: class `k ≥ 1` resolves to
    /// `class_slos[k - 1]`. Empty in every single-class run, in which case
    /// all requests are held to [`WorldConfig::slo`].
    pub class_slos: Vec<Slo>,
    /// Keep-alive threshold before idle instances are reclaimed (1 s).
    pub keep_alive: SimDuration,
    /// Execution-time jitter.
    pub noise: NoiseModel,
    /// Root seed for all stochastic behaviour in the run.
    pub seed: u64,
    /// Occupancy sampling period.
    pub sample_period: SimDuration,
    /// The checkpoint storage hierarchy (per-node DRAM/SSD caches, loading
    /// contention, HBM hits). The default, [`CheckpointConfig::flat`],
    /// reproduces the legacy flat loader bit for bit.
    pub checkpoints: CheckpointConfig,
    /// Keep every `n`-th occupancy sample in
    /// [`RunMetrics::usage_timeline`](crate::metrics::RunMetrics). The
    /// time-weighted node-busy integrals still see every tick, so summary
    /// numbers are unchanged; only the plotted timeline thins. The default
    /// of 1 keeps everything (byte-identical to the historical behaviour);
    /// fleet-scale runs raise it so a day-long trace does not carry a
    /// 100k-point timeline per cell. 0 is treated as 1.
    pub usage_sample_stride: usize,
    /// Cross-node checkpoint distribution (peer-to-peer fabric fetch,
    /// multicast relay trees, cache-aware keep-alive/demotion). The
    /// default, [`DistConfig::off`], disables everything and replays
    /// pre-distribution runs byte-identically.
    pub dist: DistConfig,
    /// Record `(model, activation time)` for every instance that finishes
    /// its cold start in
    /// [`RunMetrics::activations`](crate::metrics::RunMetrics::activations)
    /// — what flash-crowd experiments compute time-to-N-replicas from.
    /// Off by default so fleet-scale runs don't grow an unbounded log.
    pub record_activations: bool,
    /// Multi-turn session prefix reuse (parked per-session KV, affinity
    /// routing, priced KV migration). The default, [`SessionConfig::off`],
    /// disables everything and replays sessionless runs byte-identically.
    pub sessions: SessionConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            slo: Slo::paper(),
            class_slos: Vec::new(),
            keep_alive: SimDuration::from_secs(1),
            noise: NoiseModel::default(),
            seed: 0,
            sample_period: SimDuration::from_secs(1),
            checkpoints: CheckpointConfig::flat(),
            usage_sample_stride: 1,
            dist: DistConfig::off(),
            record_activations: false,
            sessions: SessionConfig::off(),
        }
    }
}

/// Memory-operation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    /// The node cannot physically hold the requested bytes.
    WouldOom {
        /// Node that would overflow.
        node: NodeId,
        /// Bytes the operation needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A shrink below the live KV block set was requested.
    BelowLiveSet,
    /// The node's hardware cannot serve this model (§IV-A2 limits).
    Unservable,
    /// The node is draining or down and accepts no new instances.
    NodeUnavailable(NodeId),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::WouldOom {
                node,
                needed,
                available,
            } => write!(
                f,
                "node {} would OOM: need {} bytes, {} available",
                node.0, needed, available
            ),
            MemError::BelowLiveSet => write!(f, "cannot shrink KV below live blocks"),
            MemError::Unservable => write!(f, "hardware cannot serve this model"),
            MemError::NodeUnavailable(node) => {
                write!(f, "node {} is draining or down", node.0)
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Iteration-start failures.
#[derive(Debug, Clone, PartialEq)]
pub enum StartError {
    /// The KV grant cannot hold the prompt of the request to prefill.
    KvExhausted(RequestId),
    /// Another slot of the instance's tensor-parallel group is still
    /// running an iteration; the caller should skip this instance until a
    /// later slot-free poke. Single-slot instances never hit this — the
    /// driver only pokes free slots.
    GroupBusy,
}

/// Lifecycle state of a node.
///
/// Scheduling is only allowed on [`NodeHealth::Up`] nodes; a draining node
/// keeps running its in-flight iterations but accepts no new instances, and
/// a down node has lost everything it hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
    /// Being emptied for maintenance: existing iterations finish, new
    /// placements are refused, hosted requests are rerouted.
    Draining,
    /// Failed or drained away: hosts nothing and accepts nothing.
    Down,
}

/// A timed cluster-lifecycle event, injected through the simulation event
/// loop by [`crate::scenario::Scenario`] (or mid-run by tests via
/// [`World::push_cluster_event`]).
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// Gracefully empty a node: no new placements; idle instances unload
    /// immediately and their queued requests are handed back to the policy;
    /// busy instances are swept up as their iterations finish.
    NodeDrain(NodeId),
    /// Hard-fail a node: every hosted instance is lost instantly (weights,
    /// KV, in-flight iterations); surviving requests are handed back to the
    /// policy to re-place — they re-prefill elsewhere, like any migration.
    NodeFail(NodeId),
    /// A new node joins the fleet and becomes schedulable at once.
    NodeJoin(NodeSpec),
}

/// Events processed by the driver.
#[derive(Debug)]
pub(crate) enum Event {
    /// Request `trace[idx]` arrives.
    Arrival(usize),
    /// An iteration completes.
    IterationDone {
        inst: InstanceId,
        kind: IterationKind,
        elapsed: SimDuration,
    },
    /// A cold-start load completes. `epoch` is 0 for fixed-duration
    /// (uncontended) loads; contended loads are rescheduled whenever the
    /// node's loading channel changes membership, and only the event
    /// matching the channel's current epoch is live — stale ones are
    /// skipped by [`World::resolve_load_done`].
    LoadDone {
        inst: InstanceId,
        elapsed: SimDuration,
        epoch: u64,
    },
    /// A KV rescale completes.
    ScaleDone {
        inst: InstanceId,
        from_bytes: u64,
        to_bytes: u64,
        elapsed: SimDuration,
    },
    /// Keep-alive check for an instance idle since `marker`.
    KeepAlive { inst: InstanceId, marker: SimTime },
    /// Policy-requested timer.
    Timer(u64),
    /// Periodic metrics sample.
    Sample,
    /// A scheduled cluster-lifecycle event fires.
    Cluster(ClusterEvent),
}

struct NodeState {
    hw: HardwareSpec,
    slot_shares: Vec<f64>,
    slot_busy: Vec<bool>,
    committed: u64,
    health: NodeHealth,
    /// Tiered checkpoint cache (DRAM/SSD LRU state machine).
    store: CheckpointStore,
}

impl NodeState {
    fn new(spec: &NodeSpec) -> Self {
        NodeState {
            hw: spec.hw.clone(),
            slot_shares: spec.slot_shares.clone(),
            slot_busy: vec![false; spec.slot_shares.len()],
            committed: 0,
            health: NodeHealth::Up,
            store: CheckpointStore::new(),
        }
    }
}

/// The live cluster state. See module docs.
pub struct World {
    /// Run configuration.
    pub cfg: WorldConfig,
    clock: SimTime,
    pub(crate) events: EventQueue<Event>,
    nodes: Vec<NodeState>,
    instances: InstanceTable,
    loads: LoadChannels,
    next_instance: u64,
    models: Vec<ModelSpec>,
    perf: AnalyticPerf,
    rng: SimRng,
    /// Fleet-wide checkpoint replica directory (only maintained while
    /// `cfg.dist` is enabled; empty otherwise).
    dir: CheckpointDirectory,
    /// Session id → instance holding the session's parked KV. Only
    /// maintained while `cfg.sessions` is enabled; entries are validated
    /// lazily (the home may have unloaded or evicted the session since).
    session_home: BTreeMap<u64, InstanceId>,
    /// Metrics recorder (public: the driver and summaries read it).
    pub metrics: RunMetrics,
    pub(crate) outstanding: usize,
    pub(crate) wake: Vec<(NodeId, usize)>,
}

impl World {
    /// Builds a world over `cluster` hosting the given model registry
    /// (`ModelId(i)` ↦ `models[i]`).
    ///
    /// # Panics
    /// Panics if the cluster spec is invalid or `models` is empty.
    pub fn new(cluster: &ClusterSpec, models: Vec<ModelSpec>, cfg: WorldConfig) -> Self {
        // detlint::allow(D005, "constructor precondition, documented under # Panics: World::new refuses malformed specs before any event runs")
        cluster.validate().expect("invalid cluster");
        assert!(!models.is_empty(), "model registry is empty");
        let nodes: Vec<NodeState> = cluster.nodes.iter().map(NodeState::new).collect();
        let instances = InstanceTable::new(
            nodes.iter().map(|n| (n.slot_shares.len(), n.hw.kind)),
            models.len(),
        );
        let loads = LoadChannels::new(nodes.len(), cfg.checkpoints.contention);
        let rng = SimRng::new(cfg.seed).split(0xC1A5);
        World {
            cfg,
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            nodes,
            instances,
            loads,
            next_instance: 1,
            models,
            perf: AnalyticPerf::new(),
            rng,
            dir: CheckpointDirectory::new(),
            session_home: BTreeMap::new(),
            metrics: RunMetrics::default(),
            outstanding: 0,
            wake: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read-only views
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock);
        self.clock = t;
    }

    /// The run's default SLO (class 0).
    pub fn slo(&self) -> Slo {
        self.cfg.slo
    }

    /// The SLO a service class is held to. Unregistered classes fall back
    /// to the default, so a trace tagged for a richer scenario still runs
    /// under a plain config.
    pub fn slo_of(&self, class: SloClass) -> Slo {
        if class.0 == 0 {
            return self.cfg.slo;
        }
        self.cfg
            .class_slos
            .get(class.0 as usize - 1)
            .copied()
            .unwrap_or(self.cfg.slo)
    }

    /// The SLO of one request (via its class tag).
    pub fn slo_for(&self, req: &Request) -> Slo {
        self.slo_of(req.class)
    }

    /// The SLO of a request identified by id (via its metrics record).
    pub fn slo_for_id(&self, id: RequestId) -> Slo {
        self.slo_of(self.metrics.records[id.0 as usize].class)
    }

    /// Lifecycle state of a node.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.0 as usize].health
    }

    /// True while a node accepts new instances (healthy, not draining).
    pub fn node_schedulable(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].health == NodeHealth::Up
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Hardware of a node.
    pub fn node_hw(&self, node: NodeId) -> &HardwareSpec {
        &self.nodes[node.0 as usize].hw
    }

    /// Bytes not yet committed on a node.
    pub fn node_available_bytes(&self, node: NodeId) -> u64 {
        let n = &self.nodes[node.0 as usize];
        n.hw.mem_bytes.saturating_sub(n.committed)
    }

    /// Number of slots on a node.
    pub fn slot_count(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].slot_shares.len()
    }

    /// Compute share of a slot.
    pub fn slot_share(&self, node: NodeId, slot: usize) -> f64 {
        self.nodes[node.0 as usize].slot_shares[slot]
    }

    /// True while an iteration runs on the slot.
    pub fn slot_busy(&self, node: NodeId, slot: usize) -> bool {
        self.nodes[node.0 as usize].slot_busy[slot]
    }

    /// The model registry entry for `model`.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn model_spec(&self, model: ModelId) -> &ModelSpec {
        &self.models[model.0 as usize]
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The instance, if it exists.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(id).map(|h| &h.inst)
    }

    /// Mutable instance access (policies use it for migration draining).
    pub fn instance_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        self.instances.get_mut(id).map(|h| &mut h.inst)
    }

    /// Placement of an instance: its node and *primary* slot. Use
    /// [`World::instance_slots`] for the full tensor-parallel group.
    pub fn instance_placement(&self, id: InstanceId) -> Option<(NodeId, usize)> {
        self.instances.get(id).map(|h| (h.node, h.slot()))
    }

    /// The full slot group an instance spans (ascending; length 1 for
    /// plain instances, `tp` for tensor-parallel placements).
    pub fn instance_slots(&self, id: InstanceId) -> Option<&[usize]> {
        self.instances.get(id).map(|h| h.slots.as_slice())
    }

    /// Aggregate compute share of an instance's slot group — what the
    /// performance model sees (a TP instance's group share plus its
    /// interconnect discount replaces the single slot share).
    pub fn instance_share(&self, id: InstanceId) -> f64 {
        let h = &self.instances[&id];
        h.slots
            .iter()
            .map(|&s| self.nodes[h.node.0 as usize].slot_shares[s])
            .sum()
    }

    /// True while any slot of the instance's group runs an iteration.
    /// Policies skip group-busy instances when reacting to a slot-free
    /// poke — another slot of the group may still be occupied.
    pub fn instance_group_busy(&self, id: InstanceId) -> bool {
        let h = &self.instances[&id];
        h.slots
            .iter()
            .any(|&s| self.nodes[h.node.0 as usize].slot_busy[s])
    }

    /// Picks a `k`-slot group on `node` for a new instance, or `None` if
    /// the node has fewer than `k` slots: the least-populated slots win
    /// (ties by index), so instances spread across a multi-accelerator
    /// node before they stack — single-device instances included. On
    /// single-slot nodes this degenerates to slot 0, the only placement
    /// the stock experiments ever see. Deterministic by construction.
    pub fn slot_group_for(&self, node: NodeId, k: usize) -> Option<Vec<usize>> {
        let n_slots = self.nodes[node.0 as usize].slot_shares.len();
        if k == 0 || k > n_slots {
            return None;
        }
        let mut ranked: Vec<(usize, usize)> = (0..n_slots)
            .map(|s| (self.instances.on_slot(node, s).len(), s))
            .collect();
        ranked.sort();
        let mut group: Vec<usize> = ranked.into_iter().take(k).map(|(_, s)| s).collect();
        group.sort_unstable();
        Some(group)
    }

    /// The instances hosted on `node` (ascending ids).
    pub fn node_instances(&self, node: NodeId) -> &[InstanceId] {
        self.instances.on_node(node)
    }

    /// The instances whose slot group includes `slot` (ascending ids; a
    /// tensor-parallel instance appears on every slot it spans).
    pub fn slot_instances(&self, node: NodeId, slot: usize) -> &[InstanceId] {
        self.instances.on_slot(node, slot)
    }

    /// All instances of a model across the cluster (ascending ids).
    pub fn model_instances(&self, model: ModelId) -> &[InstanceId] {
        self.instances.of_model(model)
    }

    // ------------------------------------------------------------------
    // Estimation (noiseless; what a control plane can know)
    // ------------------------------------------------------------------

    /// The ground-truth analytic model, for policies that profile offline
    /// (SLINFER's quantifier samples this like it would a real node).
    pub fn perf(&self) -> &AnalyticPerf {
        &self.perf
    }

    /// True when a cold start of `model` on `node` would be served from
    /// HBM: the config enables HBM hits and an *active* instance of the
    /// model already holds the weights in serving memory (a loading
    /// neighbour's weights are not there yet). The estimate path and the
    /// actual load must agree on this predicate, so both use it.
    fn hbm_resident(&self, model: ModelId, node: NodeId) -> bool {
        self.cfg.checkpoints.hbm_hits
            && self.instances.on_node(node).iter().any(|id| {
                let h = &self.instances[id];
                h.inst.model == model && h.inst.state == InstanceState::Active
            })
    }

    /// The warmest checkpoint tier holding `model` on `node`: HBM when an
    /// active instance of the model is co-resident (and the config enables
    /// HBM hits), else whatever the node's DRAM/SSD cache state says.
    /// Read-only — recency is untouched, so estimates never perturb runs.
    pub fn checkpoint_tier(&self, model: ModelId, node: NodeId) -> CheckpointTier {
        if self.hbm_resident(model, node) {
            return CheckpointTier::Hbm;
        }
        self.nodes[node.0 as usize]
            .store
            .peek_tier(model, &self.cfg.checkpoints)
    }

    /// Cold-start duration estimate for a model on a node: ServerlessLLM's
    /// startup-time estimate, from the checkpoint's warmest tier on that
    /// node, accounting for the loads it would share the loading channel
    /// with. Placement, feasibility, and the scale-up path all score
    /// candidate nodes with this. Under the flat default configuration it
    /// degenerates to `weights / load_bw`, the legacy estimate. With
    /// checkpoint distribution enabled the estimate is peer-aware: when a
    /// fabric fetch from another node's cache beats the local hierarchy,
    /// the peer estimate is returned — so startup-time-estimated placement
    /// (SLINFER and both baselines) sees the fabric.
    pub fn estimate_load_s(&self, model: ModelId, node: NodeId) -> f64 {
        let local = self.local_estimate_load_s(model, node);
        if !self.cfg.dist.fetch_enabled() {
            return local;
        }
        match self.plan_transfer(model, node) {
            Some(plan) => plan.est_s,
            None => local,
        }
    }

    /// The PR 5 local-hierarchy estimate (warmest local tier, destination
    /// channel share) — the dist-off `estimate_load_s`, and the bar a peer
    /// transfer has to beat.
    fn local_estimate_load_s(&self, model: ModelId, node: NodeId) -> f64 {
        let tier = self.checkpoint_tier(model, node);
        let concurrent = if tier == CheckpointTier::Hbm {
            1
        } else {
            self.loads.share(node)
        };
        self.perf
            .load_time(self.model_spec(model), self.node_hw(node), tier, concurrent)
    }

    /// Plans the cheapest peer transfer of `model` to `dest`, or `None`
    /// when the local hierarchy wins (or no usable replica exists). Shared
    /// by [`World::estimate_load_s`] and the create path, so estimates and
    /// actual transfers always agree on the source.
    fn plan_transfer(&self, model: ModelId, dest: NodeId) -> Option<TransferPlan> {
        let dist = self.cfg.dist;
        if !dist.fetch_enabled() {
            return None;
        }
        let bytes = self.model_spec(model).weights_bytes() as f64;
        let (est_s, node, relay, work_s) =
            self.cheapest_peer(model, dest, bytes, dist.multicast)?;
        (est_s < self.local_estimate_load_s(model, dest)).then_some(TransferPlan {
            source: TransferSource::Peer { node, relay },
            work_s,
            est_s,
        })
    }

    /// The cheapest replica to stream `bytes` of `model` to `dest` from,
    /// over the fabric. Arriving copies are eligible as multicast relays
    /// only when `relays` is set. A stream is bounded by the receiver's
    /// fabric port and the source's tier read path, pays the fabric
    /// latency, and joins the *source's* loading channel, so its estimate
    /// is its work times that channel's share. Returns `(est_s, source,
    /// relay, work_s)`. Deterministic: replicas are scanned in node order
    /// and ties break toward the lower node id; no RNG is consulted.
    fn cheapest_peer(
        &self,
        model: ModelId,
        dest: NodeId,
        bytes: f64,
        relays: bool,
    ) -> Option<(f64, NodeId, bool, f64)> {
        let dest_hw = self.node_hw(dest);
        let mut best: Option<(f64, NodeId, bool, f64)> = None;
        for rep in self.dir.replicas(model) {
            if rep.node == dest || !self.node_schedulable(rep.node) {
                continue;
            }
            let relay = rep.state == ReplicaState::Arriving;
            if relay && !relays {
                continue;
            }
            let src_hw = self.node_hw(rep.node);
            let rate = dest_hw.fabric_bw_gbps.min(src_hw.tier_bw_gbps(rep.tier));
            if rate <= 0.0 {
                continue;
            }
            let mut work = bytes / (rate * 1e9);
            if relay {
                // A relay pipelines behind its parent's inbound stream: the
                // hop cannot finish before the parent's own tail arrives.
                work = work.max(self.inbound_remaining_s(model, rep.node));
            }
            work += dest_hw.fabric_latency_s;
            let est = work * self.loads.share(rep.node) as f64;
            if best.is_none_or(|(b_est, b_node, ..)| (est, rep.node) < (b_est, b_node)) {
                best = Some((est, rep.node, relay, work));
            }
        }
        best
    }

    /// Settled seconds remaining on the in-flight load bringing `model`
    /// to `holder`, read-only (no channel state is touched). Zero when no
    /// tracked inbound load exists — fixed-duration (uncontended) loads
    /// are not observable, so relays price them optimistically.
    fn inbound_remaining_s(&self, model: ModelId, holder: NodeId) -> f64 {
        let mut worst = 0.0f64;
        for &id in self.model_instances(model) {
            let h = &self.instances[&id];
            if h.node != holder || h.inst.state != InstanceState::Loading {
                continue;
            }
            if let Some(rem) = self.loads.remaining_s(id, h.channel(), self.clock) {
                worst = worst.max(rem);
            }
        }
        worst
    }

    /// Eviction ranks of `node`'s DRAM-resident checkpoints for
    /// cache-aware demotion: 0 = an SSD copy sits right below (cheapest to
    /// recover, evicted first), 1 = a ready fleet replica exists elsewhere
    /// (a fabric fetch away), 2 = this DRAM entry is the last copy short
    /// of the registry. Ties fall back to LRU order inside the store.
    fn dram_eviction_ranks(&self, node: NodeId) -> Vec<(ModelId, u8)> {
        let store = &self.nodes[node.0 as usize].store;
        store
            .dram_models()
            .into_iter()
            .map(|m| {
                let rank = if store.ssd_models().contains(&m) {
                    0
                } else if self.dir.ready_replicas_elsewhere(m, node) > 0 {
                    1
                } else {
                    2
                };
                (m, rank)
            })
            .collect()
    }

    /// Re-syncs the directory's view of `node` from its store (call after
    /// any store mutation while distribution is enabled).
    fn refresh_directory(&mut self, node: NodeId) {
        if !self.cfg.dist.enabled() {
            return;
        }
        let store = &self.nodes[node.0 as usize].store;
        let (dram, ssd) = (store.dram_models(), store.ssd_models());
        self.dir.refresh_node(node, &dram, &ssd);
    }

    /// Re-sources a fabric transfer whose source node just failed: the
    /// remaining fraction of the checkpoint restarts from the best *ready*
    /// replica (a relay chain rooted at the failed node lost its feed, so
    /// mid-flight peers are not eligible), falling back to a registry
    /// resume over the destination's own remote link. Deterministic — the
    /// event-application path consults no RNG, and the fresh channel epoch
    /// keeps the dead channel's LoadDone events stale.
    fn reroute_transfer(&mut self, inst: InstanceId, load: &ActiveLoad) {
        let (model, dest) = {
            let h = &self.instances[&inst];
            (h.inst.model, h.node)
        };
        let frac = if load.work_s > 0.0 {
            (load.remaining_s / load.work_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let bytes_left = self.model_spec(model).weights_bytes() as f64 * frac;
        let (channel, t) = match self.cheapest_peer(model, dest, bytes_left, false) {
            Some((_, src, _, work_s)) => (src, work_s),
            None => (dest, bytes_left / (self.node_hw(dest).remote_bw_gbps * 1e9)),
        };
        self.instances
            .get_mut(inst)
            // detlint::allow(D005, "reroute only runs for instances the failing node's loading list still names; absence is directory corruption")
            .expect("reroute target exists")
            .load_channel = (channel != dest).then_some(channel);
        self.loads.start(
            inst,
            Some(channel),
            t,
            load.started,
            self.clock,
            &mut self.events,
        );
    }

    /// Cache-aware keep-alive: returns true when unloading this idle
    /// instance should be deferred one more keep-alive period because it
    /// would send the fleet's *last* warm copy of the model back to the
    /// registry. Bounded by [`KEEPALIVE_DEFER_MAX`] deferrals so a cooling
    /// fleet still drains. No-op (always false) unless `dist.cache_aware`.
    pub(crate) fn keepalive_defer(&mut self, inst: InstanceId) -> bool {
        if !self.cfg.dist.cache_aware {
            return false;
        }
        let (model, node, defers) = match self.instances.get(inst) {
            Some(h) => (h.inst.model, h.node, h.keepalive_defers),
            None => return false,
        };
        if defers >= KEEPALIVE_DEFER_MAX {
            return false;
        }
        // Another live instance of the model keeps the weights hot
        // regardless of what happens to this one.
        if self.model_instances(model).iter().any(|&id| id != inst) {
            return false;
        }
        if self.dir.ready_replicas_elsewhere(model, node) > 0 {
            return false;
        }
        // Only defer when eviction would truly fall back to the registry:
        // a local DRAM/SSD copy below the instance's HBM residency makes
        // the next cold start cheap anyway.
        if self.nodes[node.0 as usize]
            .store
            .peek_tier(model, &self.cfg.checkpoints)
            != CheckpointTier::Remote
        {
            return false;
        }
        self.instances
            .get_mut(inst)
            // detlint::allow(D005, "the same map was read a few lines up; between the two lookups nothing can remove the instance")
            .expect("checked above")
            .keepalive_defers += 1;
        true
    }

    /// [`World::estimate_load_s`] as an integer-nanosecond sort key — the
    /// startup-time score SLINFER and the baselines order placement
    /// candidates by. One definition, so the scheduling signal cannot
    /// drift between policies; integer so `(rank, score, …)` tuples keep
    /// a deterministic total order, with ties falling back to each
    /// caller's legacy ordering (which is what makes the flat default
    /// configuration replay byte-identically).
    pub fn startup_score_ns(&self, model: ModelId, node: NodeId) -> u64 {
        (self.estimate_load_s(model, node) * 1e9).round() as u64
    }

    /// KV-transfer delay for PD disaggregation: `tokens · C / bandwidth`.
    pub fn kv_transfer_delay(&self, model: ModelId, tokens: u32) -> SimDuration {
        let bytes = tokens as u64 * self.model_spec(model).kv_bytes_per_token();
        SimDuration::from_secs_f64(bytes as f64 / (KV_TRANSFER_GBPS * 1e9))
    }

    // ------------------------------------------------------------------
    // Mutation API (policies)
    // ------------------------------------------------------------------

    /// Creates an instance of `model` on `(node, slot)` with an initial KV
    /// grant, committing `weights + grant` bytes and starting the cold-start
    /// load. Single-slot shorthand for [`World::create_instance_group`].
    pub fn create_instance(
        &mut self,
        model: ModelId,
        node: NodeId,
        slot: usize,
        kv_grant_bytes: u64,
    ) -> Result<InstanceId, MemError> {
        self.create_instance_group(model, node, &[slot], kv_grant_bytes)
    }

    /// Creates an instance of `model` spanning the slot group `slots` of
    /// one node (a tensor-parallel placement when `slots.len() > 1`). The
    /// grant and weight bytes commit against the node's single ledger —
    /// the group shards one footprint, it does not multiply it.
    ///
    /// # Panics
    /// Panics if `slots` is empty, out of range, or holds duplicates, or
    /// if its length does not match the model's deployed TP degree.
    pub fn create_instance_group(
        &mut self,
        model: ModelId,
        node: NodeId,
        slots: &[usize],
        kv_grant_bytes: u64,
    ) -> Result<InstanceId, MemError> {
        if !self.node_schedulable(node) {
            return Err(MemError::NodeUnavailable(node));
        }
        let spec = self.model_spec(model).clone();
        assert!(!slots.is_empty(), "an instance needs at least one slot");
        assert_eq!(
            slots.len() as u32,
            spec.tp_degree.max(1),
            "slot group size must match the model's TP degree"
        );
        let mut slots: Vec<usize> = slots.to_vec();
        slots.sort_unstable();
        let n_slots = self.slot_count(node);
        assert!(
            slots.iter().all(|&s| s < n_slots),
            "slot out of range for node {}",
            node.0
        );
        assert!(
            slots.windows(2).all(|w| w[0] != w[1]),
            "slot group holds duplicate slots"
        );
        if !self.node_hw(node).can_serve(&spec) {
            return Err(MemError::Unservable);
        }
        let needed = spec.weights_bytes() + kv_grant_bytes;
        let available = self.node_available_bytes(node);
        if needed > available {
            self.metrics.oom_incidents += 1;
            return Err(MemError::WouldOom {
                node,
                needed,
                available,
            });
        }
        self.nodes[node.0 as usize].committed += needed;
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        // Fetch the checkpoint from its warmest tier, promoting it through
        // the node's cache hierarchy. HBM hits copy the co-resident weights
        // device-to-device and only refresh cache recency. With checkpoint
        // distribution enabled, a peer's cached copy (or an in-flight relay
        // under multicast) can beat the local hierarchy: the weights then
        // stream over the fabric into DRAM, contending on the *source*
        // node's loading channel instead of the local one.
        let ix = node.0 as usize;
        let hbm = self.hbm_resident(model, node);
        let plan = if self.cfg.dist.fetch_enabled() && !hbm {
            self.plan_transfer(model, node)
        } else {
            None
        };
        // Empty unless cache-aware, which makes the ranked fetch plain LRU.
        let ranks = if self.cfg.dist.cache_aware {
            self.dram_eviction_ranks(node)
        } else {
            Vec::new()
        };
        let ckpt = &self.cfg.checkpoints;
        let store = &mut self.nodes[ix].store;
        let (tier, peer) = if hbm {
            store.touch(model);
            (CheckpointTier::Hbm, None)
        } else if let Some(TransferPlan {
            source: TransferSource::Peer { node: src, relay },
            work_s,
            ..
        }) = plan
        {
            store.admit_fabric(model, spec.weights_bytes(), ckpt, &ranks);
            (CheckpointTier::Dram, Some((src, relay, work_s)))
        } else {
            let t = store.fetch_ranked(model, spec.weights_bytes(), ckpt, &ranks);
            (t, None)
        };
        if self.cfg.dist.enabled() {
            self.refresh_directory(node);
            if peer.is_some() || tier == CheckpointTier::Remote {
                self.dir.mark_arriving(model, node);
            }
        }
        let base = match peer {
            Some((_, _, work_s)) => work_s,
            None => self.perf.load_time(&spec, &self.nodes[ix].hw, tier, 1),
        };
        let mut inst = Instance::new(id, model, spec, kv_grant_bytes, self.clock);
        inst.retain_sessions = self.cfg.sessions.enabled;
        self.instances.insert(
            id,
            Hosted {
                inst,
                node,
                slots,
                load_tier: tier,
                load_channel: peer.map(|(src, _, _)| src),
                fabric: peer.is_some(),
                keepalive_defers: 0,
            },
        );
        self.metrics.cold_starts += 1;
        match peer {
            Some((_, relay, _)) => {
                self.metrics.peer_fetches += 1;
                if relay {
                    self.metrics.multicast_relays += 1;
                }
            }
            None => self.metrics.cold_tier_loads[tier.index()] += 1,
        }
        let work = self.cfg.noise.apply(base, &mut self.rng);
        // A fabric stream shares the source's loading channel with the
        // source's own cold starts; an HBM hit is a device copy that joins
        // no channel.
        let channel = match peer {
            Some((src, _, _)) => Some(src),
            None => (tier != CheckpointTier::Hbm).then_some(node),
        };
        self.loads
            .start(id, channel, work, self.clock, self.clock, &mut self.events);
        Ok(id)
    }

    /// Validates a `LoadDone` event against the loading channel. Returns
    /// the load's true elapsed duration, or `None` for a stale event (the
    /// channel was rescheduled after it was pushed, or the instance is
    /// gone). Fixed-duration loads (epoch 0) pass through unchanged.
    pub(crate) fn resolve_load_done(
        &mut self,
        inst: InstanceId,
        elapsed: SimDuration,
        epoch: u64,
    ) -> Option<SimDuration> {
        if epoch == 0 {
            return Some(elapsed);
        }
        // The instance may have died (NodeFail / drain unload) with its load.
        let ch = self.instances.get(inst)?.channel();
        self.loads
            .finish(inst, ch, epoch, self.clock, &mut self.events)
            .then_some(elapsed)
    }

    /// Admits a request to an instance. If the instance is still loading,
    /// the request is marked cold-start and will receive the §IX-A grace.
    ///
    /// # Panics
    /// Panics if the instance does not exist.
    pub fn admit(&mut self, inst: InstanceId, rr: RunningRequest) {
        // detlint::allow(D005, "documented # Panics contract: callers admit only to instances they just placed or looked up")
        let h = self.instances.get_mut(inst).expect("unknown instance");
        h.inst.admit(rr);
        h.wake_slots(&mut self.wake);
    }

    /// Admits a request that finished prefill elsewhere (PD disaggregation,
    /// §IX-G): it joins the decode batch directly if the KV grant holds its
    /// shipped cache. Returns false (without waking) otherwise.
    ///
    /// # Panics
    /// Panics if the instance does not exist.
    #[must_use]
    pub fn admit_decoding(&mut self, inst: InstanceId, rr: RunningRequest) -> bool {
        // detlint::allow(D005, "documented # Panics contract: PD handoff targets are validated by the policy before the ship")
        let h = self.instances.get_mut(inst).expect("unknown instance");
        if h.inst.scaling {
            // The block array is being rebuilt; admitting now could push
            // live usage past an in-flight shrink target.
            return false;
        }
        let admitted = h.inst.admit_decoding(rr);
        if admitted {
            h.wake_slots(&mut self.wake);
        }
        admitted
    }

    /// Starts an iteration on an instance, occupying its whole slot group.
    /// Returns its (noisy) duration, or [`StartError::GroupBusy`] if
    /// another slot of a tensor-parallel group is still running.
    ///
    /// # Panics
    /// Panics if the instance has no such work or is loading/scaling.
    pub fn start_iteration(
        &mut self,
        inst: InstanceId,
        kind: IterationKind,
    ) -> Result<SimDuration, StartError> {
        // Indexing panics on an unknown id: the documented # Panics contract.
        let h = &self.instances[&inst];
        let node_ix = h.node.0 as usize;
        let n = &self.nodes[node_ix];
        if h.slots.iter().any(|&s| n.slot_busy[s]) {
            return Err(StartError::GroupBusy);
        }
        // The group's summed share, exactly as `instance_share` adds it.
        let share: f64 = h.slots.iter().map(|&s| n.slot_shares[s]).sum();
        // Session KV migration pre-pass: if the prefill about to start is a
        // follow-up turn whose parked KV sits on a *different* instance and
        // migration is on, pull the entry over before `begin_prefill` runs so
        // the cached prefix is discounted here too. Runs entirely before the
        // mutable borrow of the target instance below.
        let mut migrated: Option<(u64, u32)> = None;
        if self.cfg.sessions.enabled {
            if let IterationKind::Prefill(req) = kind {
                let target = &self.instances[&inst].inst;
                if let Some(tag) = target.queued_session(req) {
                    if tag.is_followup() && !target.has_session(tag.id) {
                        if let Some(&home) = self.session_home.get(&tag.id) {
                            if home != inst {
                                if let Some(tokens) = self
                                    .instances
                                    .get_mut(home)
                                    .and_then(|hh| hh.inst.evict_session(tag.id))
                                {
                                    migrated = Some((tag.id, tokens));
                                }
                            }
                        }
                    }
                }
            }
        }
        // detlint::allow(D005, "same instance re-fetched after the immutable borrows above released; nothing removed it in between")
        let h = self.instances.get_mut(inst).expect("unknown instance");
        if let Some((sid, tokens)) = migrated {
            h.inst.import_session(sid, tokens);
        }
        let hw = &self.nodes[node_ix].hw;
        let tp = h.inst.tp;
        let base = match kind {
            IterationKind::Prefill(req) => {
                let ps = match h.inst.begin_prefill(req) {
                    Some(ps) => ps,
                    None => return Err(StartError::KvExhausted(req)),
                };
                let mut base =
                    self.perf
                        .prefill_time_tp(&h.inst.spec, hw, ps.compute_tokens, share, tp);
                if ps.cached_tokens > 0 {
                    self.metrics.record_mut(req).prefix_cached = ps.cached_tokens;
                    match migrated {
                        // A migrated prefix pays fabric transfer time instead
                        // of the prefill tail it skipped.
                        Some((_, tokens)) => {
                            let bytes = tokens as u64 * h.inst.spec.kv_bytes_per_token();
                            self.metrics.kv_migrations += 1;
                            self.metrics.kv_migration_bytes += bytes;
                            base += bytes as f64 / (KV_TRANSFER_GBPS * 1e9);
                        }
                        None => self.metrics.prefix_hit_tokens += ps.cached_tokens as u64,
                    }
                }
                base
            }
            IterationKind::Decode => {
                let (bs, ctx) = h.inst.begin_decode();
                self.perf
                    .decode_time_tp(&h.inst.spec, hw, bs, ctx, share, tp)
            }
        };
        let dur = SimDuration::from_secs_f64(self.cfg.noise.apply(base, &mut self.rng));
        let busy = &mut self.nodes[node_ix].slot_busy;
        for &s in &h.slots {
            busy[s] = true;
        }
        self.events.push(
            self.clock + dur,
            Event::IterationDone {
                inst,
                kind,
                elapsed: dur,
            },
        );
        Ok(dur)
    }

    /// Issues a KV rescale to `to_bytes`. Scale-ups commit the delta
    /// immediately (the new blocks are allocated up front); scale-downs
    /// release their delta only on completion — the asymmetry behind the
    /// §VII-C hazard.
    pub fn start_kv_scale(&mut self, inst: InstanceId, to_bytes: u64) -> Result<(), MemError> {
        // detlint::allow(D005, "documented # Panics contract: rescales name instances the policy holds")
        let (node, _) = self.instance_placement(inst).expect("unknown instance");
        let h = &self.instances[&inst];
        assert!(!h.inst.scaling, "rescale already in flight");
        assert!(!h.inst.busy, "cannot rescale mid-iteration");
        let from_bytes = h.inst.kv_capacity_bytes();
        if to_bytes == from_bytes {
            return Ok(());
        }
        if to_bytes < from_bytes && h.inst.kv_used_bytes() > to_bytes {
            // Parked session KV is reclaimable under capacity pressure: try
            // shedding idle sessions (coldest first) before refusing the
            // shrink on behalf of the truly live set.
            // detlint::allow(D005, "same instance re-fetched mutably; nothing removed it in between")
            let h = self.instances.get_mut(inst).expect("unknown instance");
            h.inst.evict_sessions_to_fit(to_bytes);
            if h.inst.kv_used_bytes() > to_bytes {
                return Err(MemError::BelowLiveSet);
            }
        }
        let h = &self.instances[&inst];
        if to_bytes > from_bytes {
            let delta = to_bytes - from_bytes;
            let available = self.node_available_bytes(node);
            if delta > available {
                self.metrics.oom_incidents += 1;
                return Err(MemError::WouldOom {
                    node,
                    needed: delta,
                    available,
                });
            }
            self.nodes[node.0 as usize].committed += delta;
        }
        let used = h.inst.kv_used_bytes();
        let base =
            self.perf
                .kv_scale_time(&self.nodes[node.0 as usize].hw, from_bytes, to_bytes, used);
        let dur = SimDuration::from_secs_f64(self.cfg.noise.apply(base, &mut self.rng));
        // detlint::allow(D005, "same instance re-fetched mutably after the perf-model reads; nothing removed it in between")
        let h = self.instances.get_mut(inst).expect("unknown instance");
        h.inst.scaling = true;
        self.events.push(
            self.clock + dur,
            Event::ScaleDone {
                inst,
                from_bytes,
                to_bytes,
                elapsed: dur,
            },
        );
        Ok(())
    }

    /// Unloads an idle instance, releasing its committed memory.
    ///
    /// # Panics
    /// Panics if the instance still has live requests, is mid-iteration, or
    /// is mid-rescale.
    pub fn unload_instance(&mut self, inst: InstanceId) {
        let h = self.teardown(inst);
        assert!(h.inst.is_idle(), "unloading a non-idle instance");
        if self.cfg.dist.enabled() {
            // Drop any arriving marker. The tier entry stays: the store
            // keeps admitted-but-cancelled checkpoints (PR 5 semantics),
            // so the directory keeps reporting the copy too.
            self.dir.mark_ready(h.inst.model, h.node);
        }
        let freed = h.inst.spec.weights_bytes() + h.inst.kv_capacity_bytes();
        let node = &mut self.nodes[h.node.0 as usize];
        node.committed = node.committed.saturating_sub(freed);
        // Unloading discards the instance's parked session KV with it.
        if self.cfg.sessions.enabled {
            for sid in h.inst.session_ids() {
                if self.session_home.get(&sid) == Some(&inst) {
                    self.session_home.remove(&sid);
                }
            }
        }
        h.wake_slots(&mut self.wake);
    }

    /// Removes an instance from the table and from its loading channel (a
    /// still-loading instance leaves it, and any co-loading survivors speed
    /// back up) and books its lifetime. The part of an unload that a node
    /// failure shares.
    ///
    /// # Panics
    /// Panics if the instance does not exist.
    fn teardown(&mut self, inst: InstanceId) -> Hosted {
        // detlint::allow(D005, "documented # Panics contract: unloads name instances the policy holds, and a failing node's instances are listed from the table")
        let h = self.instances.remove(inst).expect("unknown instance");
        self.loads
            .leave(inst, h.channel(), self.clock, &mut self.events);
        self.metrics.instance_lifetime_s += self.clock.since(h.inst.created_at).as_secs_f64();
        h
    }

    /// Schedules a policy timer.
    pub fn set_timer(&mut self, delay: SimDuration, payload: u64) {
        self.events.push(self.clock + delay, Event::Timer(payload));
    }

    /// Schedules the keep-alive check for an instance that just went idle.
    /// Driver and policies call this after observing `idle_since` change.
    pub fn schedule_keepalive(&mut self, inst: InstanceId) {
        if let Some(h) = self.instances.get(inst) {
            if let Some(marker) = h.inst.idle_since {
                self.events.push(
                    marker + self.cfg.keep_alive,
                    Event::KeepAlive { inst, marker },
                );
            }
        }
    }

    /// Drops a request the policy gave up on (queue timeout): records it and
    /// resolves it.
    pub fn drop_request(&mut self, rr: &RunningRequest) {
        let rec = self.metrics.record_mut(rr.req.id);
        if !rec.dropped && rec.completed.is_none() {
            rec.dropped = true;
            self.metrics.dropped += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// Records a preemption (for the consolidator's accounting).
    pub fn note_preemption(&mut self) {
        self.metrics.preemptions += 1;
    }

    /// Records `n` request migrations and stamps their records.
    pub fn note_migration(&mut self, ids: &[RequestId]) {
        self.metrics.migrations += ids.len() as u64;
        for &id in ids {
            self.metrics.record_mut(id).migrations += 1;
        }
    }

    /// Records a shadow validation (accepted or rejected).
    pub fn note_shadow_validation(&mut self) {
        self.metrics.shadow_validations += 1;
    }

    /// Marks the record of a cold-start-triggering request.
    pub fn note_cold_start_request(&mut self, id: RequestId) {
        self.metrics.record_mut(id).cold_start = true;
    }

    // ------------------------------------------------------------------
    // Session affinity (multi-turn prefix reuse)
    // ------------------------------------------------------------------

    /// Where a follow-up turn's parked prefix KV lives, if the session
    /// subsystem is on and the home instance is still worth sticking to.
    ///
    /// Policies call this *before* their normal placement scan and treat a
    /// `Some` as a preferred candidate (still subject to their own admission
    /// checks). Returns `None` — fall back to normal placement — when
    /// sessions are off, stickiness is zero, the request is not a follow-up
    /// turn, the home has unloaded or shed the session's KV, the home's node
    /// is unschedulable, or the home is already loaded past the
    /// stickiness-scaled in-flight cap ([`SessionConfig::stickiness`]).
    pub fn session_affinity_target(&self, req: &Request) -> Option<InstanceId> {
        let sc = &self.cfg.sessions;
        if !sc.enabled || sc.stickiness <= 0.0 || !req.session.is_followup() {
            return None;
        }
        let home = *self.session_home.get(&req.session.id)?;
        let h = self.instances.get(home)?;
        if h.inst.model != req.model || !h.inst.has_session(req.session.id) {
            return None;
        }
        if !self.node_schedulable(h.node) {
            return None;
        }
        let cap = ((sc.stickiness * AFFINITY_MAX_INFLIGHT as f64).floor() as u32).max(1);
        if h.inst.live_count() >= cap {
            return None;
        }
        Some(home)
    }

    /// Records where a finished session turn parked its KV. The driver calls
    /// this when a request completes, before the policy's `on_request_done`
    /// hook, so the next turn's affinity lookup sees the fresh home.
    pub(crate) fn note_request_parked(&mut self, inst: InstanceId, rr: &RunningRequest) {
        if !self.cfg.sessions.enabled || !rr.req.session.is_session() {
            return;
        }
        let parked = self
            .instances
            .get(inst)
            .is_some_and(|h| h.inst.has_session(rr.req.session.id));
        if parked {
            self.session_home.insert(rr.req.session.id, inst);
        }
    }

    // ------------------------------------------------------------------
    // Cluster lifecycle (drain / fail / join)
    // ------------------------------------------------------------------

    /// Schedules a cluster-lifecycle event at absolute simulated time `at`.
    /// [`crate::scenario::Scenario`] uses this for its environment axis;
    /// tests may call it directly before `Simulation::run`.
    pub fn push_cluster_event(&mut self, at: SimTime, ev: ClusterEvent) {
        self.events.push(at, Event::Cluster(ev));
    }

    /// Applies a lifecycle event and returns the requests it displaced
    /// (drained from unloaded instances, or surviving a node failure). The
    /// driver hands these to [`crate::policy::Policy::on_node_event`] for
    /// re-placement; each displaced request restarts as a migration
    /// (it re-prefills its full context elsewhere).
    pub(crate) fn apply_cluster_event(&mut self, ev: &ClusterEvent) -> Vec<RunningRequest> {
        match ev {
            ClusterEvent::NodeDrain(node) => {
                if self.nodes[node.0 as usize].health == NodeHealth::Up {
                    self.nodes[node.0 as usize].health = NodeHealth::Draining;
                    self.metrics.node_drains += 1;
                }
                self.drain_idle_instances(*node)
            }
            ClusterEvent::NodeFail(node) => {
                if self.nodes[node.0 as usize].health != NodeHealth::Down {
                    self.nodes[node.0 as usize].health = NodeHealth::Down;
                    self.metrics.node_failures += 1;
                }
                // The node's in-flight loads die with its channel; their
                // LoadDone events go stale with the entries. Fabric
                // transfers streaming *out* of it (peer fetches whose
                // destination survives) are rerouted below, from how much
                // of each stream is left.
                let outbound = self.loads.fail(*node, self.clock);
                let rerouted: Vec<(InstanceId, ActiveLoad)> = if self.cfg.dist.enabled() {
                    outbound
                        .into_iter()
                        .filter(|(id, _)| self.instances.get(*id).is_some_and(|h| h.node != *node))
                        .collect()
                } else {
                    Vec::new()
                };
                let n = &mut self.nodes[node.0 as usize];
                n.committed = 0;
                for b in &mut n.slot_busy {
                    *b = false;
                }
                // The checkpoint cache dies with the host (DRAM is gone and
                // the disk never rejoins the fleet).
                n.store.clear();
                self.dir.clear_node(*node);
                // Everything hosted is gone; salvage the request states. A
                // cold start streaming *into* this node over a surviving
                // peer's channel leaves that channel, so the survivors
                // there speed back up.
                let lost: Vec<InstanceId> = self.node_instances(*node).to_vec();
                let mut displaced = Vec::new();
                for inst in lost {
                    let mut h = self.teardown(inst);
                    let moved = h.inst.drain_for_preemption(self.clock);
                    let ids: Vec<RequestId> = moved.iter().map(|r| r.req.id).collect();
                    self.note_migration(&ids);
                    displaced.extend(moved);
                }
                for (id, load) in rerouted {
                    self.reroute_transfer(id, &load);
                    self.metrics.transfer_reroutes += 1;
                }
                displaced
            }
            ClusterEvent::NodeJoin(spec) => {
                // detlint::allow(D005, "scenario precondition: a NodeJoin event carrying a malformed spec is a bug in the experiment definition")
                spec.validate().expect("invalid joining node");
                self.nodes.push(NodeState::new(spec));
                self.instances
                    .add_node(spec.slot_shares.len(), spec.hw.kind);
                self.loads.add_node();
                self.metrics.node_joins += 1;
                Vec::new()
            }
        }
    }

    /// Unloads every instance on `node` that is not mid-iteration or
    /// mid-rescale, returning the requests they were holding. Used when a
    /// drain starts and again by the driver as busy instances finish their
    /// in-flight iterations on a draining node.
    pub(crate) fn drain_idle_instances(&mut self, node: NodeId) -> Vec<RunningRequest> {
        if self.nodes[node.0 as usize].health != NodeHealth::Draining {
            return Vec::new();
        }
        let now = self.clock;
        let mut displaced = Vec::new();
        for inst in self.node_instances(node).to_vec() {
            // detlint::allow(D005, "the list was copied from the node index before the walk, and only the instance fetched here is unloaded per step")
            let h = self.instances.get_mut(inst).expect("listed");
            if h.inst.busy || h.inst.scaling {
                continue; // swept up when the iteration/rescale completes
            }
            let moved = h.inst.drain_for_preemption(now);
            let ids: Vec<RequestId> = moved.iter().map(|r| r.req.id).collect();
            self.note_migration(&ids);
            displaced.extend(moved);
            self.unload_instance(inst);
        }
        displaced
    }

    // ------------------------------------------------------------------
    // Driver support
    // ------------------------------------------------------------------

    pub(crate) fn release_slot(&mut self, inst: InstanceId) {
        if let Some(h) = self.instances.get(inst) {
            let busy = &mut self.nodes[h.node.0 as usize].slot_busy;
            for &s in &h.slots {
                busy[s] = false;
            }
            h.wake_slots(&mut self.wake);
        }
    }

    pub(crate) fn apply_scale_done(
        &mut self,
        inst: InstanceId,
        from_bytes: u64,
        to_bytes: u64,
        elapsed: SimDuration,
    ) {
        let h = match self.instances.get_mut(inst) {
            Some(h) => h,
            None => return,
        };
        h.inst.scaling = false;
        // Live usage may legitimately have grown since the shrink was
        // planned (e.g. a PD handoff raced the issue); clamp the target so
        // the resize never cuts under the live block set.
        let final_to = if to_bytes < from_bytes {
            to_bytes.max(h.inst.kv_used_bytes()).min(from_bytes)
        } else {
            to_bytes
        };
        let ok = h.inst.apply_kv_resize(final_to, elapsed);
        debug_assert!(ok, "resize below live set slipped through");
        if final_to < from_bytes {
            let delta = from_bytes - final_to;
            let n = &mut self.nodes[h.node.0 as usize];
            n.committed = n.committed.saturating_sub(delta);
        }
        self.metrics.scale_ops += 1;
        self.metrics.scale_blocked_s += elapsed.as_secs_f64();
        h.wake_slots(&mut self.wake);
    }

    pub(crate) fn apply_load_done(&mut self, inst: InstanceId, elapsed: SimDuration) {
        let now = self.clock;
        let mut graced: Vec<(RequestId, SimDuration)> = Vec::new();
        if let Some(h) = self.instances.get(inst) {
            let (model, node, fabric, tier) = (h.inst.model, h.node, h.fabric, h.load_tier);
            if fabric {
                self.metrics.peer_fetch_seconds += elapsed.as_secs_f64();
            } else {
                self.metrics.cold_tier_seconds[tier.index()] += elapsed.as_secs_f64();
            }
            if self.cfg.dist.enabled() {
                self.dir.mark_ready(model, node);
            }
            if self.cfg.record_activations {
                self.metrics.activations.push((model, now.as_secs_f64()));
            }
        }
        if let Some(h) = self.instances.get_mut(inst) {
            h.inst.activate(now);
            for r in h.inst.requests_mut() {
                if r.grace.is_zero() {
                    r.grace = elapsed;
                    graced.push((r.req.id, elapsed));
                }
            }
            h.wake_slots(&mut self.wake);
        }
        for (id, grace) in graced {
            let rec = self.metrics.record_mut(id);
            rec.grace = grace;
            rec.cold_start = true;
        }
    }

    /// Samples occupancy and per-instance gauges.
    pub(crate) fn take_sample(&mut self) {
        let t = self.clock.as_secs_f64();
        // Maintained on every instance create/unload, so sampling is O(1)
        // in fleet size instead of an O(nodes × instances) residency scan.
        let (cpu_used, gpu_used) = self.instances.used_nodes();
        self.metrics.sample_usage(t, cpu_used, gpu_used);
        for h in self.instances.values() {
            if h.inst.state != InstanceState::Active {
                continue;
            }
            if h.inst.has_live_requests() {
                let used = h.inst.spec.weights_bytes() + h.inst.kv_used_bytes();
                let util = used as f64 / h.inst.footprint_bytes().max(1) as f64;
                match self.nodes[h.node.0 as usize].hw.kind {
                    HardwareKind::Gpu => self.metrics.mem_util_gpu.add(util),
                    _ => self.metrics.mem_util_cpu.add(util),
                }
                let bs = h.inst.batch_size();
                if bs > 0 {
                    self.metrics.batch_sizes.add(bs as f64);
                    if self.nodes[h.node.0 as usize].hw.kind == HardwareKind::Gpu {
                        self.metrics.batch_sizes_gpu.add(bs as f64);
                    }
                }
                self.metrics.kv_util.add(h.inst.kv_utilization());
            }
        }
    }

    pub(crate) fn count_decode_tokens(&mut self, inst: InstanceId, tokens: u64) {
        if let Some(h) = self.instances.get(inst) {
            match self.nodes[h.node.0 as usize].hw.kind {
                HardwareKind::Gpu => self.metrics.gpu_decode_tokens += tokens,
                _ => self.metrics.cpu_decode_tokens += tokens,
            }
        }
    }

    /// Adds remaining instance lifetimes at end of run.
    pub(crate) fn finalize_lifetimes(&mut self) {
        let now = self.clock;
        let total: f64 = self
            .instances
            .values()
            .map(|h| now.since(h.inst.created_at).as_secs_f64())
            .sum();
        self.metrics.instance_lifetime_s += total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ClusterSpec;
    use proptest::prelude::*;

    const GB: u64 = 1_000_000_000;

    /// A table over one 3-slot CPU node and one 3-slot GPU node, for two
    /// models.
    fn small_table() -> InstanceTable {
        let nodes = [(3, HardwareKind::CpuAccel), (3, HardwareKind::Gpu)];
        InstanceTable::new(nodes.into_iter(), 2)
    }

    /// A value whose placement is a function of `v`, and which carries `v`
    /// in `keepalive_defers` so it can be compared to a plain map.
    fn hosted(id: InstanceId, v: u32) -> Hosted {
        let spec = ModelSpec::llama2_7b();
        Hosted {
            inst: Instance::new(id, ModelId(v % 2), spec, 0, SimTime::ZERO),
            node: NodeId(v / 2 % 2),
            slots: vec![(v % 3) as usize],
            load_tier: CheckpointTier::Remote,
            load_channel: None,
            fabric: false,
            keepalive_defers: v,
        }
    }

    /// Asserts the table and its `BTreeMap` reference hold the same live
    /// set, visited in the same ascending order, and that every index and
    /// used-node counter matches its brute-force definition.
    fn assert_table_matches(table: &InstanceTable, map: &BTreeMap<InstanceId, u32>) {
        assert_eq!(
            table
                .iter()
                .map(|(&k, h)| (k, h.keepalive_defers))
                .collect::<Vec<_>>(),
            map.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        assert_eq!(
            table
                .values()
                .map(|h| h.keepalive_defers)
                .collect::<Vec<_>>(),
            map.values().copied().collect::<Vec<_>>()
        );
        let ids = |pred: &dyn Fn(&Hosted) -> bool| -> Vec<InstanceId> {
            table
                .iter()
                .filter(|(_, h)| pred(h))
                .map(|(&id, _)| id)
                .collect()
        };
        let mut used = (0, 0);
        for n in 0..2 {
            let node = NodeId(n);
            assert_eq!(table.on_node(node), ids(&|h| h.node == node));
            for s in 0..3 {
                let on = ids(&|h| h.node == node && h.slots.contains(&s));
                assert_eq!(table.on_slot(node, s), on);
            }
            if !table.on_node(node).is_empty() {
                if n == 0 {
                    used.0 += 1;
                } else {
                    used.1 += 1;
                }
            }
        }
        for m in 0..2 {
            let model = ModelId(m);
            assert_eq!(table.of_model(model), ids(&|h| h.inst.model == model));
        }
        assert_eq!(table.used_nodes(), used);
    }

    proptest! {
        /// Shadow equivalence: the instance table and the `BTreeMap` it
        /// replaced agree on every lookup and every ascending walk, and its
        /// indexes track their brute-force definition, for any
        /// interleaving of inserts (fresh ascending ids, with gaps, as
        /// `World` issues them), removes of live, dead and never-issued
        /// ids, lookups and in-place updates.
        #[test]
        fn instance_arena_matches_btreemap_shadow(
            ops in prop::collection::vec(
                // Repeated arms stand in for weights (the harness picks
                // arms uniformly). Ids of the other ops are drawn below
                // the fresh-id counter's reach so they hit live, removed
                // and not-yet-issued ids alike.
                prop_oneof![
                    (1u64..4, 0u32..1000).prop_map(|(gap, v)| (0u8, gap, v)),
                    (1u64..4, 0u32..1000).prop_map(|(gap, v)| (0u8, gap, v)),
                    (0u64..200).prop_map(|id| (1u8, id, 0)),
                    (0u64..200).prop_map(|id| (1u8, id, 0)),
                    (0u64..200).prop_map(|id| (2u8, id, 0)),
                    (0u64..200, 0u32..1000).prop_map(|(id, v)| (3u8, id, v)),
                ],
                1..300,
            ),
        ) {
            let mut table = small_table();
            let mut map: BTreeMap<InstanceId, u32> = BTreeMap::new();
            let mut next = 0u64;
            for (op, arg, v) in ops {
                if op == 0 {
                    next += arg;
                    table.insert(InstanceId(next), hosted(InstanceId(next), v));
                    map.insert(InstanceId(next), v);
                    assert_table_matches(&table, &map);
                    continue;
                }
                let id = InstanceId(arg);
                match op {
                    1 => prop_assert_eq!(
                        table.remove(id).map(|h| h.keepalive_defers),
                        map.remove(&id)
                    ),
                    2 => prop_assert_eq!(
                        table.get(id).map(|h| h.keepalive_defers),
                        map.get(&id).copied()
                    ),
                    _ => {
                        if let Some(h) = table.get_mut(id) {
                            h.keepalive_defers = v;
                        }
                        if let Some(x) = map.get_mut(&id) {
                            *x = v;
                        }
                    }
                }
                assert_table_matches(&table, &map);
            }
        }
    }

    #[test]
    fn removed_id_stays_absent_after_its_slot_is_reused() {
        let mut table = small_table();
        let defers = |h: Option<&Hosted>| h.map(|h| h.keepalive_defers);
        table.insert(InstanceId(1), hosted(InstanceId(1), 10));
        table.insert(InstanceId(2), hosted(InstanceId(2), 20));
        let removed = table.remove(InstanceId(1));
        assert_eq!(defers(removed.as_ref()), Some(10));
        // The next insert recycles slab slot 0, which id 1 used to own.
        table.insert(InstanceId(3), hosted(InstanceId(3), 30));
        assert_eq!(table.slab_len(), 2, "the vacated slot was reused");
        assert_eq!(defers(table.get(InstanceId(1))), None);
        assert!(table.remove(InstanceId(1)).is_none());
        assert_eq!(defers(table.get(InstanceId(3))), Some(30));
        let live: Vec<InstanceId> = table.iter().map(|(&id, _)| id).collect();
        assert_eq!(live, [InstanceId(2), InstanceId(3)]);
        let values: Vec<u32> = table.values().map(|h| h.keepalive_defers).collect();
        assert_eq!(values, vec![20, 30]);
        // Ids never issued, past the end of the id table, are absent too.
        assert_eq!(defers(table.get(InstanceId(1_000))), None);
    }

    fn tiered_world(nodes: ClusterSpec, models: Vec<ModelSpec>) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            checkpoints: CheckpointConfig::tiered(30 * GB, Some(100 * GB)),
            ..WorldConfig::default()
        };
        World::new(&nodes, models, cfg)
    }

    #[test]
    fn node_fail_drops_cache_and_inflight_loads() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
        );
        w.create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.nodes[0].store.dram_models(), vec![ModelId(0)]);
        assert_eq!(w.nodes[0].store.ssd_models(), vec![ModelId(0)]);
        assert_eq!(w.loads.len(NodeId(0)), 1);
        let displaced = w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        assert!(displaced.is_empty(), "nothing admitted yet");
        // DRAM died with the host; the disk never rejoins the fleet.
        assert!(w.nodes[0].store.dram_models().is_empty());
        assert!(w.nodes[0].store.ssd_models().is_empty());
        assert_eq!(w.loads.len(NodeId(0)), 0);
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(0)),
            CheckpointTier::Remote
        );
        // The untouched node is still cold too — caches are per-node.
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(1)),
            CheckpointTier::Remote
        );
    }

    #[test]
    fn node_drain_preserves_cache() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 1),
            vec![ModelSpec::llama2_7b()],
        );
        w.create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        let _ = w.apply_cluster_event(&ClusterEvent::NodeDrain(NodeId(0)));
        // A drained node keeps its warm tiers: if it rejoins the
        // schedulable set, the checkpoint is still DRAM-local.
        assert_eq!(w.nodes[0].store.dram_models(), vec![ModelId(0)]);
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(0)),
            CheckpointTier::Dram
        );
    }

    fn session_world(sessions: SessionConfig, gpu_nodes: usize) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            sessions,
            ..WorldConfig::default()
        };
        World::new(
            &ClusterSpec::heterogeneous(0, gpu_nodes),
            vec![ModelSpec::llama2_7b()],
            cfg,
        )
    }

    fn session_req(id: u64, turn: u32) -> Request {
        use workload::request::SessionTag;
        Request {
            id: RequestId(id),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: 700,
            output_len: 8,
            class: SloClass::default(),
            session: SessionTag::new(7, turn),
        }
    }

    #[test]
    fn session_kv_migrates_to_the_landing_instance() {
        let mut w = session_world(SessionConfig::reuse(1.0), 2);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        let b = w
            .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(b).unwrap().activate(SimTime::ZERO);
        // Turn 0 parked 600 prefix tokens on `a`; turn 1 lands on `b`.
        w.instance_mut(a).unwrap().import_session(7, 600);
        w.session_home.insert(7, a);
        let req = session_req(0, 1);
        w.metrics = RunMetrics::for_trace(std::slice::from_ref(&req));
        w.admit(b, RunningRequest::new(req));
        w.start_iteration(b, IterationKind::Prefill(RequestId(0)))
            .expect("starts");
        let bytes = 600 * w.model_spec(ModelId(0)).kv_bytes_per_token();
        assert_eq!(w.metrics.kv_migrations, 1);
        assert_eq!(w.metrics.kv_migration_bytes, bytes);
        assert_eq!(
            w.metrics.prefix_hit_tokens, 0,
            "migrated tokens are transfers, not local hits"
        );
        assert_eq!(w.metrics.record_mut(RequestId(0)).prefix_cached, 600);
        assert!(
            !w.instance(a).unwrap().has_session(7),
            "the parked copy moved to the landing instance"
        );
    }

    #[test]
    fn affinity_target_respects_turn_stickiness_and_load() {
        // cap = floor(0.125 * 16) = 2
        let mut w = session_world(SessionConfig::reuse(0.125), 1);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(a).unwrap().import_session(7, 100);
        w.session_home.insert(7, a);
        // Opener turns never stick; follow-up turns do.
        assert_eq!(w.session_affinity_target(&session_req(0, 0)), None);
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), Some(a));
        // The stickiness-scaled in-flight cap closes the door at 2 live.
        w.admit(a, RunningRequest::new(session_req(1, 1)));
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), Some(a));
        w.admit(a, RunningRequest::new(session_req(2, 1)));
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), None);
    }

    #[test]
    fn unload_clears_the_session_home_directory() {
        let mut w = session_world(SessionConfig::reuse(1.0), 1);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(a).unwrap().import_session(7, 100);
        w.session_home.insert(7, a);
        w.unload_instance(a);
        assert!(
            w.session_home.is_empty(),
            "unload retires the home directory entries it hosted"
        );
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), None);
    }

    #[test]
    fn tp_group_is_one_load_on_the_channel() {
        // A TP=2 instance loads its shards as ONE aggregate stream — it
        // must never count as `tp` separate contenders on the channel.
        let nodes = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
        };
        let tp_model = ModelSpec::llama2_13b().with_tp(2);
        let mut w = tiered_world(nodes, vec![tp_model, ModelSpec::llama2_7b()]);
        w.create_instance_group(ModelId(0), NodeId(0), &[0, 1], 8 * GB)
            .expect("fits");
        assert_eq!(w.loads.len(NodeId(0)), 1);
        // A second model's estimate sees exactly 2-way contention (itself
        // plus the TP group), not 1 + tp.
        let est = w.estimate_load_s(ModelId(1), NodeId(0));
        let gang = w.node_hw(NodeId(0)).clone();
        let alone = w
            .perf()
            .load_time(w.model_spec(ModelId(1)), &gang, CheckpointTier::Remote, 1);
        assert!(
            (est - 2.0 * alone).abs() / (2.0 * alone) < 1e-9,
            "estimate {est} vs 2x uncontended {alone}"
        );
    }

    #[test]
    fn estimate_tracks_warmest_tier() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 1),
            vec![ModelSpec::llama2_7b(), ModelSpec::llama2_7b().replica(1)],
        );
        let spec = w.model_spec(ModelId(0)).clone();
        let hw = w.node_hw(NodeId(0)).clone();
        let remote = w.perf().load_time(&spec, &hw, CheckpointTier::Remote, 1);
        let dram = w.perf().load_time(&spec, &hw, CheckpointTier::Dram, 1);
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), remote);
        // Loading the checkpoint promotes it: estimates now price a DRAM
        // hit — but with the load still in flight, a newcomer would share
        // the channel 2-ways.
        let inst = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), 2.0 * dram);
        // Once the channel clears the estimate is the plain DRAM hit.
        w.unload_instance(inst);
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), dram);
        assert_eq!(w.loads.len(NodeId(0)), 0);
    }

    /// Rebuilds every index list by brute force over the instance map and
    /// asserts the incrementally maintained table indexes match.
    fn assert_index_consistent(w: &World) {
        for (i, n) in w.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            let expect_node: Vec<InstanceId> = w
                .instances
                .iter()
                .filter(|(_, h)| h.node == node)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(w.node_instances(node), expect_node, "node {i} list");
            for s in 0..n.slot_shares.len() {
                let expect_slot: Vec<InstanceId> = w
                    .instances
                    .iter()
                    .filter(|(_, h)| h.node == node && h.slots.contains(&s))
                    .map(|(&id, _)| id)
                    .collect();
                assert_eq!(w.slot_instances(node, s), expect_slot, "node {i} slot {s}");
            }
        }
        for m in 0..w.model_count() {
            let model = ModelId(m as u32);
            let expect: Vec<InstanceId> = w
                .instances
                .iter()
                .filter(|(_, h)| h.inst.model == model)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(w.model_instances(model), expect, "model {m} list");
        }
        let (mut cpu, mut gpu) = (0u32, 0u32);
        for (i, n) in w.nodes.iter().enumerate() {
            if w.instances.values().any(|h| h.node == NodeId(i as u32)) {
                match n.hw.kind {
                    HardwareKind::Gpu => gpu += 1,
                    _ => cpu += 1,
                }
            }
        }
        assert_eq!(w.instances.used_nodes(), (cpu, gpu));
    }

    /// The instance indexes must track the brute-force definition through
    /// every mutation path: create (plain and TP group), unload, node
    /// failure (bulk removal), node join (fresh lists), and re-creation.
    #[test]
    fn instance_index_matches_brute_force() {
        let nodes = ClusterSpec {
            nodes: vec![
                NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4),
                NodeSpec::multi_accel(HardwareSpec::a100_80g(), 2),
            ],
        };
        let tp_model = ModelSpec::llama2_13b().with_tp(2);
        let mut w = tiered_world(nodes, vec![tp_model, ModelSpec::llama2_7b()]);
        assert_index_consistent(&w);

        let a = w
            .create_instance_group(ModelId(0), NodeId(0), &[0, 1], 4 * GB)
            .expect("fits");
        let b = w
            .create_instance(ModelId(1), NodeId(0), 2, GB)
            .expect("fits");
        let c = w
            .create_instance(ModelId(1), NodeId(1), 0, GB)
            .expect("fits");
        assert_index_consistent(&w);
        assert_eq!(w.node_instances(NodeId(0)), [a, b]);
        assert_eq!(w.slot_instances(NodeId(0), 1), [a]);
        assert_eq!(w.model_instances(ModelId(1)), [b, c]);

        w.unload_instance(b);
        assert_index_consistent(&w);

        // Node failure removes everything hosted in one sweep.
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        assert_index_consistent(&w);
        assert!(w.node_instances(NodeId(0)).is_empty());

        // A joining node gets fresh (empty) lists and indexes new creates.
        w.apply_cluster_event(&ClusterEvent::NodeJoin(NodeSpec::multi_accel(
            HardwareSpec::a100_80g(),
            3,
        )));
        assert_index_consistent(&w);
        let d = w
            .create_instance(ModelId(1), NodeId(2), 1, GB)
            .expect("fits");
        assert_index_consistent(&w);
        assert_eq!(w.slot_instances(NodeId(2), 1), [d]);
        assert_eq!(w.model_instances(ModelId(1)), [c, d]);
    }

    #[test]
    fn flat_default_is_the_legacy_flat_loader() {
        // The default configuration must price every cold start at
        // exactly weights / load_bw — bit for bit, tier and churn blind.
        let mut w = World::new(
            &ClusterSpec::heterogeneous(1, 1),
            vec![ModelSpec::llama2_7b()],
            WorldConfig {
                noise: NoiseModel::off(),
                ..WorldConfig::default()
            },
        );
        for node in [NodeId(0), NodeId(1)] {
            let spec = w.model_spec(ModelId(0)).clone();
            let legacy = spec.weights_bytes() as f64 / (w.node_hw(node).load_bw_gbps * 1e9);
            assert_eq!(w.estimate_load_s(ModelId(0), node), legacy);
            assert_eq!(w.checkpoint_tier(ModelId(0), node), CheckpointTier::Dram);
        }
        // Cold starts never join the loading channel in flat mode.
        w.create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.loads.len(NodeId(1)), 0);
        assert_eq!(w.metrics.cold_tier_loads, [0, 1, 0, 0]);
    }

    fn dist_world(nodes: ClusterSpec, models: Vec<ModelSpec>, dist: DistConfig) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            checkpoints: CheckpointConfig::tiered(30 * GB, Some(100 * GB)),
            dist,
            ..WorldConfig::default()
        };
        World::new(&nodes, models, cfg)
    }

    /// Parks a warm copy of `model` in `node`'s DRAM cache: the create
    /// fetches the checkpoint, the unload cancels the in-flight load and
    /// marks the directory replica ready (the cache entry survives).
    fn warm(w: &mut World, model: ModelId, node: NodeId) {
        let inst = w.create_instance(model, node, 0, GB).expect("fits");
        w.unload_instance(inst);
    }

    #[test]
    fn peer_fetch_prices_fabric_and_joins_source_channel() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        assert_eq!(w.loads.len(NodeId(0)), 0);

        let spec = w.model_spec(ModelId(0)).clone();
        let dest = w.node_hw(NodeId(1)).clone();
        let src = w.node_hw(NodeId(0)).clone();
        let rate = dest
            .fabric_bw_gbps
            .min(src.tier_bw_gbps(CheckpointTier::Dram));
        let fabric = spec.weights_bytes() as f64 / (rate * 1e9) + dest.fabric_latency_s;
        let remote = w.perf().load_time(&spec, &dest, CheckpointTier::Remote, 1);
        assert!(fabric < remote, "fabric {fabric} must beat remote {remote}");
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(1)), fabric);

        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        // The transfer rides the *source* node's loading channel.
        assert_eq!(w.loads.len(NodeId(0)), 1);
        assert_eq!(w.loads.len(NodeId(1)), 0);
        assert_eq!(w.metrics.cold_starts, 2);
        assert_eq!(w.metrics.peer_fetches, 1);
        assert_eq!(w.metrics.multicast_relays, 0);
        // The fabric admit lands in DRAM with no SSD write-through.
        assert_eq!(w.nodes[1].store.dram_models(), vec![ModelId(0)]);
        assert!(w.nodes[1].store.ssd_models().is_empty());
    }

    #[test]
    fn multicast_attaches_relays_to_arriving_copies() {
        let nodes = ClusterSpec::heterogeneous(0, 3);
        let models = vec![ModelSpec::llama2_7b()];
        // Peer-only: every scale-out streams from the ready seed, piling
        // onto its channel.
        let mut w = dist_world(nodes.clone(), models.clone(), DistConfig::peer());
        warm(&mut w, ModelId(0), NodeId(0));
        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.create_instance(ModelId(0), NodeId(2), 0, GB)
            .expect("fits");
        assert_eq!(w.metrics.peer_fetches, 2);
        assert_eq!(w.metrics.multicast_relays, 0);
        assert_eq!(w.loads.len(NodeId(0)), 2);

        // Multicast: the second scale-out relays off node 1's still
        // arriving copy instead of doubling up on the seed's channel.
        let mut w = dist_world(nodes, models, DistConfig::full());
        warm(&mut w, ModelId(0), NodeId(0));
        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.create_instance(ModelId(0), NodeId(2), 0, GB)
            .expect("fits");
        assert_eq!(w.metrics.peer_fetches, 2);
        assert_eq!(w.metrics.multicast_relays, 1);
        assert_eq!(w.loads.len(NodeId(0)), 1);
        assert_eq!(w.loads.len(NodeId(1)), 1);
    }

    #[test]
    fn source_failure_reroutes_transfer_to_ready_replica() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 3),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        warm(&mut w, ModelId(0), NodeId(2));
        let inst = w
            .create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        // Equal-cost sources tie-break toward the lower node id.
        assert_eq!(w.loads.len(NodeId(0)), 1);
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        // The survivor re-sources from node 2's ready copy; the instance
        // itself (on the untouched node 1) lives on.
        assert_eq!(w.metrics.transfer_reroutes, 1);
        assert_eq!(w.loads.len(NodeId(2)), 1);
        assert_eq!(w.loads.len(NodeId(1)), 0);
        assert!(w.instance(inst).is_some());
    }

    #[test]
    fn source_failure_falls_back_to_registry_resume() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        let inst = w
            .create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        // No ready replica is left anywhere: the remainder resumes from
        // the registry over the destination's own channel.
        assert_eq!(w.metrics.transfer_reroutes, 1);
        assert_eq!(w.loads.len(NodeId(1)), 1);
        assert!(w.instance(inst).is_some());
    }

    /// With loading contention off, a fabric transfer runs for a fixed
    /// duration on no channel, so a source failure mid-transfer finds no
    /// channel entry to reroute: the stream still lands at its original
    /// time, priced from the dead peer. This pins today's behaviour; the
    /// contended path above re-sources instead.
    #[test]
    fn uncontended_transfer_keeps_its_landing_time_on_source_failure() {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            checkpoints: CheckpointConfig {
                contention: false,
                ..CheckpointConfig::tiered(30 * GB, Some(100 * GB))
            },
            dist: DistConfig::peer(),
            ..WorldConfig::default()
        };
        let mut w = World::new(
            &ClusterSpec::heterogeneous(0, 3),
            vec![ModelSpec::llama2_7b()],
            cfg,
        );
        warm(&mut w, ModelId(0), NodeId(0));
        warm(&mut w, ModelId(0), NodeId(2));
        let fetches = w.metrics.peer_fetches;
        let inst = w
            .create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        assert_eq!(w.metrics.peer_fetches, fetches + 1);
        assert_eq!(w.loads.len(NodeId(0)), 0, "no channel without contention");
        // Equal-cost sources tie-break toward node 0.
        let dest = w.node_hw(NodeId(1)).clone();
        let rate = dest
            .fabric_bw_gbps
            .min(w.node_hw(NodeId(0)).tier_bw_gbps(CheckpointTier::Dram));
        let bytes = w.model_spec(ModelId(0)).weights_bytes() as f64;
        let fabric = SimDuration::from_secs_f64(bytes / (rate * 1e9) + dest.fabric_latency_s);
        w.set_now(SimTime::ZERO + SimDuration::from_micros(fabric.as_micros() / 2));
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        assert_eq!(w.metrics.transfer_reroutes, 0);
        assert_eq!(w.instance(inst).unwrap().state, InstanceState::Loading);
        let mut landings = Vec::new();
        while let Some((at, ev)) = w.events.pop() {
            if let Event::LoadDone {
                inst: i,
                elapsed,
                epoch,
            } = ev
            {
                if i == inst {
                    landings.push((at, elapsed, epoch));
                }
            }
        }
        assert_eq!(landings, [(SimTime::ZERO + fabric, fabric, 0)]);
    }

    #[test]
    fn cache_aware_keepalive_defers_last_warm_copy() {
        let models = vec![ModelSpec::llama2_7b(), ModelSpec::llama2_7b().replica(1)];
        let weights = models[0].weights_bytes();
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            // DRAM holds exactly one checkpoint and there is no SSD tier:
            // eviction sends a model all the way back to the registry.
            checkpoints: CheckpointConfig::tiered(weights + GB, Some(0)),
            dist: DistConfig::full(),
            ..WorldConfig::default()
        };
        let mut w = World::new(&ClusterSpec::heterogeneous(0, 1), models, cfg);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, GB)
            .expect("fits");
        // While the checkpoint is DRAM-cached, reclaiming is cheap: no
        // deferral.
        assert!(!w.keepalive_defer(a));
        // A second model's fetch evicts it from the one-checkpoint DRAM.
        w.create_instance(ModelId(1), NodeId(0), 0, GB)
            .expect("fits");
        assert_eq!(w.nodes[0].store.dram_models(), vec![ModelId(1)]);
        // `a` now hosts the fleet's last warm copy: defer, up to the bound.
        assert!(w.keepalive_defer(a));
        assert!(w.keepalive_defer(a));
        assert!(w.keepalive_defer(a));
        assert!(!w.keepalive_defer(a), "defer bound reached");
    }
}
