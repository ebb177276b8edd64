//! [`InstanceTable`]: every hosted instance, stored densely by id, plus
//! the per-node, per-slot and per-model indexes over them.
//!
//! One `insert` and one `remove` keep the slab, the ascending live list,
//! the indexes and the used-node counters in step, so no caller can file
//! an instance in one and forget the other.

use std::ops::Index;

use engine::instance::{Instance, InstanceId};
use hwmodel::{CheckpointTier, HardwareKind};
use workload::request::ModelId;

use crate::node::NodeId;

/// An instance plus its placement.
pub struct Hosted {
    /// The engine-level instance.
    pub inst: Instance,
    /// Node it resides on.
    pub node: NodeId,
    /// The full slot group this instance spans, ascending. One entry for
    /// plain instances; `tp` entries for tensor-parallel placements, all
    /// on [`Hosted::node`]. Iterations occupy every slot of the group.
    pub slots: Vec<usize>,
    /// The checkpoint tier this instance's cold start loaded from.
    pub load_tier: CheckpointTier,
    /// For a peer fabric fetch: the *source* node, whose loading channel
    /// the transfer contends on when contention is on (`None` = the load
    /// runs on the instance's own node, the classic path).
    pub load_channel: Option<NodeId>,
    /// True when the cold start streams over the peer-to-peer fabric
    /// (its seconds are accounted to
    /// [`RunMetrics::peer_fetch_seconds`](crate::metrics::RunMetrics::peer_fetch_seconds),
    /// not the local tier table).
    pub fabric: bool,
    /// Keep-alive periods this instance has already deferred because it
    /// held the fleet's last warm copy of its checkpoint (cache-aware
    /// keep-alive; bounded by [`crate::dist::KEEPALIVE_DEFER_MAX`]).
    pub keepalive_defers: u32,
}

impl Hosted {
    /// Primary slot (the first of the group) — the single-slot address
    /// legacy queries use.
    pub fn slot(&self) -> usize {
        self.slots[0]
    }

    /// The node whose loading channel this instance's cold start uses: the
    /// peer source of a fabric fetch, else its own node.
    pub(super) fn channel(&self) -> NodeId {
        self.load_channel.unwrap_or(self.node)
    }

    /// Queues a slot-free poke for every slot of the group.
    pub(super) fn wake_slots(&self, wake: &mut Vec<(NodeId, usize)>) {
        for &s in &self.slots {
            wake.push((self.node, s));
        }
    }
}

/// `slot_of` entry of an id with no live value.
const NO_SLOT: u32 = u32::MAX;

/// Dense id-keyed storage for the hosted instances, with secondary
/// indexes.
///
/// The token-iteration path looks its instance up about a dozen times per
/// `IterationDone`, so a lookup is one index into `slot_of` and one into
/// `slab` instead of a tree descent:
/// - `slab` holds the values; slots vacated by removals are recycled
///   through `free`, so the slab tracks the *live* population, not every
///   instance a churn-heavy run ever created;
/// - `slot_of[id]` is the id's slab slot, [`NO_SLOT`] once it is removed
///   (ids are handed out monotonically, so this costs 4 bytes per id
///   ever issued and a recycled slot can never answer for a dead id);
/// - `live` lists the live ids in ascending order.
///
/// [`InstanceTable::values`] and [`InstanceTable::iter`] walk `live`, so
/// they visit live instances only, in exactly the ascending-id order of
/// the `BTreeMap` this replaced. Float accumulations over instances
/// (occupancy samples, end-of-run lifetimes) depend on that order to stay
/// bit-identical.
///
/// The hot loop also asks "who is on this slot", "who is on this node" and
/// "where does this model run" once or more per event, so the table keeps
/// those lists too. Every list stays ascending by id — inserts append —
/// which preserves the iteration order of the map scans they replaced.
pub(super) struct InstanceTable {
    slab: Vec<Option<Hosted>>,
    free: Vec<u32>,
    slot_of: Vec<u32>,
    live: Vec<InstanceId>,
    /// `[node]` → hardware kind, for the used-node counters.
    kinds: Vec<HardwareKind>,
    /// `[node]` → hosted instance ids (ascending).
    by_node: Vec<Vec<InstanceId>>,
    /// `[node][slot]` → ids of instances whose slot group covers the slot
    /// (a tensor-parallel instance appears under every slot it spans).
    by_slot: Vec<Vec<Vec<InstanceId>>>,
    /// `[model]` → instance ids (ascending); sized to the model registry.
    by_model: Vec<Vec<InstanceId>>,
    /// Nodes with ≥ 1 resident instance, by hardware kind. Occupancy
    /// sampling reads these counters instead of scanning the fleet.
    used_cpu_nodes: u32,
    used_gpu_nodes: u32,
}

impl InstanceTable {
    /// An empty table over nodes given as `(slot count, kind)`.
    pub(super) fn new(nodes: impl Iterator<Item = (usize, HardwareKind)>, n_models: usize) -> Self {
        let mut t = InstanceTable {
            slab: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            live: Vec::new(),
            kinds: Vec::new(),
            by_node: Vec::new(),
            by_slot: Vec::new(),
            by_model: vec![Vec::new(); n_models],
            used_cpu_nodes: 0,
            used_gpu_nodes: 0,
        };
        for (n_slots, kind) in nodes {
            t.add_node(n_slots, kind);
        }
        t
    }

    /// Registers a node (at construction, or one that joined mid-run).
    pub(super) fn add_node(&mut self, n_slots: usize, kind: HardwareKind) {
        self.kinds.push(kind);
        self.by_node.push(Vec::new());
        self.by_slot.push(vec![Vec::new(); n_slots]);
    }

    fn slot(&self, id: InstanceId) -> Option<usize> {
        match self.slot_of.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    pub(super) fn get(&self, id: InstanceId) -> Option<&Hosted> {
        self.slab[self.slot(id)?].as_ref()
    }

    pub(super) fn get_mut(&mut self, id: InstanceId) -> Option<&mut Hosted> {
        let s = self.slot(id)?;
        self.slab[s].as_mut()
    }

    /// Files `h` under a fresh `id`, one above every id inserted before —
    /// `World` hands ids out monotonically — so every list grows by an
    /// append.
    pub(super) fn insert(&mut self, id: InstanceId, h: Hosted) {
        let ix = id.0 as usize;
        debug_assert!(
            ix >= self.slot_of.len(),
            "instance ids must be fresh and ascending"
        );
        let node = h.node.0 as usize;
        if self.by_node[node].is_empty() {
            match self.kinds[node] {
                HardwareKind::Gpu => self.used_gpu_nodes += 1,
                _ => self.used_cpu_nodes += 1,
            }
        }
        sorted_insert(&mut self.by_node[node], id);
        for &s in &h.slots {
            sorted_insert(&mut self.by_slot[node][s], id);
        }
        sorted_insert(&mut self.by_model[h.inst.model.0 as usize], id);
        let s = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(h);
                s
            }
            None => {
                self.slab.push(Some(h));
                (self.slab.len() - 1) as u32
            }
        };
        if ix >= self.slot_of.len() {
            self.slot_of.resize(ix + 1, NO_SLOT);
        }
        self.slot_of[ix] = s;
        self.live.push(id);
    }

    /// Unfiles `id` everywhere and returns its value (`None` if it is not
    /// live).
    pub(super) fn remove(&mut self, id: InstanceId) -> Option<Hosted> {
        let s = self.slot(id)?;
        self.slot_of[id.0 as usize] = NO_SLOT;
        self.free.push(s as u32);
        if let Ok(pos) = self.live.binary_search(&id) {
            self.live.remove(pos);
        }
        let h = self.slab[s].take()?;
        let node = h.node.0 as usize;
        sorted_remove(&mut self.by_node[node], id);
        if self.by_node[node].is_empty() {
            match self.kinds[node] {
                HardwareKind::Gpu => self.used_gpu_nodes -= 1,
                _ => self.used_cpu_nodes -= 1,
            }
        }
        for &s in &h.slots {
            sorted_remove(&mut self.by_slot[node][s], id);
        }
        sorted_remove(&mut self.by_model[h.inst.model.0 as usize], id);
        Some(h)
    }

    /// Live values in ascending id order.
    pub(super) fn values(&self) -> impl Iterator<Item = &Hosted> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Live `(id, value)` pairs in ascending id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&InstanceId, &Hosted)> + '_ {
        self.live
            .iter()
            .filter_map(|id| Some((id, self.slab[self.slot(*id)?].as_ref()?)))
    }

    /// The instances hosted on `node` (ascending ids).
    pub(super) fn on_node(&self, node: NodeId) -> &[InstanceId] {
        &self.by_node[node.0 as usize]
    }

    /// The instances whose slot group includes `slot` (ascending ids).
    pub(super) fn on_slot(&self, node: NodeId, slot: usize) -> &[InstanceId] {
        &self.by_slot[node.0 as usize][slot]
    }

    /// All instances of a model (ascending ids).
    pub(super) fn of_model(&self, model: ModelId) -> &[InstanceId] {
        &self.by_model[model.0 as usize]
    }

    /// Nodes hosting at least one instance, as `(cpu, gpu)`.
    pub(super) fn used_nodes(&self) -> (u32, u32) {
        (self.used_cpu_nodes, self.used_gpu_nodes)
    }

    /// Slab length: live values plus recycled holes.
    #[cfg(test)]
    pub(super) fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

impl Index<&InstanceId> for InstanceTable {
    type Output = Hosted;

    /// The `BTreeMap` indexing contract: the id must be live.
    fn index(&self, id: &InstanceId) -> &Hosted {
        // detlint::allow(D005, "same contract as the BTreeMap index it replaces: World indexes only ids it just looked up or that its documented # Panics preconditions require to be live")
        self.get(*id).expect("unknown instance")
    }
}

fn sorted_insert(list: &mut Vec<InstanceId>, id: InstanceId) {
    // Instance ids are monotone, so this is an append in practice.
    match list.binary_search(&id) {
        Ok(_) => debug_assert!(false, "instance indexed twice"),
        Err(pos) => list.insert(pos, id),
    }
}

fn sorted_remove(list: &mut Vec<InstanceId>, id: InstanceId) {
    if let Ok(pos) = list.binary_search(&id) {
        list.remove(pos);
    } else {
        debug_assert!(false, "removing an unindexed instance");
    }
}
