//! Shared idle-slot listing, slot-group claiming and startup-time scoring
//! for the exclusive-allocation baselines.
//!
//! Both `sllm` and the PD variant list idle slots the same way and launch
//! tensor-parallel instances the same way: scan the idle-slot list for
//! `tp` idle slots of one node, grant the group its slots' exclusive
//! memory share, create the instance. One implementation, so the slot
//! scan, the grant formula and the run scan cannot drift between the two
//! policies.
//!
//! Candidate nodes are ordered ServerlessLLM-style: by estimated startup
//! time from each node's warmest checkpoint tier (HBM co-residency, DRAM
//! cache, local SSD, remote fetch — including loading-channel
//! contention), CPUs still first. Under the flat default checkpoint
//! configuration every node of a kind scores identically, so the legacy
//! scan order replays byte-for-byte.

use cluster::{NodeId, World};
use engine::instance::InstanceId;
use workload::request::ModelId;

/// Every idle slot of a schedulable node that `usable` accepts, as
/// `(rank, node, slot)` triples sorted CPUs first (rank 0), then by node
/// and slot: the list [`score_free_slots`] and [`claim_slot_group`] take.
pub fn free_slots(w: &World, usable: impl Fn(&World, NodeId) -> bool) -> Vec<(u8, NodeId, usize)> {
    let mut slots = Vec::new();
    for node in w.node_ids() {
        if !w.node_schedulable(node) || !usable(w, node) {
            continue;
        }
        let rank = if w.node_hw(node).kind.is_cpu() {
            0u8
        } else {
            1
        };
        for slot in 0..w.slot_count(node) {
            if w.slot_instances(node, slot).is_empty() {
                slots.push((rank, node, slot));
            }
        }
    }
    slots.sort();
    slots
}

/// Annotates a `(rank, node, slot)`-sorted idle-slot list with each
/// node's startup-time score ([`World::startup_score_ns`]), computing the
/// score once per node run (it depends only on `(model, node)`, and
/// `estimate_load_s` scans the instance table — per-slot recomputation
/// would multiply the placement scan by the slot count for identical
/// results). Returns `(rank, score, index)` triples ready to sort: equal
/// scores preserve the list's legacy `(rank, node, slot)` order.
pub fn score_free_slots(
    w: &World,
    model: ModelId,
    free: &[(u8, NodeId, usize)],
) -> Vec<(u8, u64, usize)> {
    let mut scored = Vec::with_capacity(free.len());
    let mut last: Option<(NodeId, u64)> = None;
    for (fi, &(rank, node, _)) in free.iter().enumerate() {
        let score = match last {
            Some((n, s)) if n == node => s,
            _ => {
                let s = w.startup_score_ns(model, node);
                last = Some((node, s));
                s
            }
        };
        scored.push((rank, score, fi));
    }
    scored
}

/// Scans a `(rank, node, slot)`-sorted idle-slot list for `tp` idle slots
/// of one node that `usable` accepts, creates the TP instance with the
/// group's memory budget (`tp` slot shares of the node, capped by its
/// free bytes), and returns the instance plus the claimed range of
/// `free` — callers maintaining the list across a retry pass drain that
/// range. Sortedness makes one node's idle slots contiguous, so runs are
/// found in a single pass; candidate runs are then tried warmest-first
/// ([`World::startup_score_ns`]), CPUs before GPUs, list order on ties.
pub fn claim_slot_group(
    w: &mut World,
    model: ModelId,
    free: &[(u8, NodeId, usize)],
    tp: usize,
    usable: impl Fn(&World, NodeId) -> bool,
) -> Option<(InstanceId, std::ops::Range<usize>)> {
    let spec = w.model_spec(model).clone();
    // Collect each node's run of idle slots, then order candidates by
    // (kind rank, startup score, list position).
    let mut runs: Vec<(u8, u64, usize)> = Vec::new();
    let mut i = 0;
    while i < free.len() {
        let node = free[i].1;
        let mut j = i;
        while j < free.len() && free[j].1 == node {
            j += 1;
        }
        if j - i >= tp {
            runs.push((free[i].0, w.startup_score_ns(model, node), i));
        }
        i = j;
    }
    runs.sort_unstable();
    for (_, _, i) in runs {
        let node = free[i].1;
        if !usable(w, node) {
            continue;
        }
        let slots: Vec<usize> = free[i..i + tp].iter().map(|&(_, _, s)| s).collect();
        let slot_mem = w.node_hw(node).mem_bytes / w.slot_count(node) as u64;
        let grant = (slot_mem * tp as u64)
            .saturating_sub(spec.weights_bytes())
            .min(
                w.node_available_bytes(node)
                    .saturating_sub(spec.weights_bytes()),
            );
        if grant > 0 {
            if let Ok(inst) = w.create_instance_group(model, node, &slots, grant) {
                return Some((inst, i..i + tp));
            }
        }
    }
    None
}
