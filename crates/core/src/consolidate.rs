//! Efficiency-oriented consolidation helpers (§VIII).
//!
//! - **Reactive bin-packing** ([`order_candidates`]): route a new request to
//!   its model's *largest-batch* instance first, so small fragments drain
//!   and get reclaimed at keep-alive (§VIII-B, Fig. 20c). CPU instances come
//!   before GPU instances because SLINFER prioritizes CPUs (§V).
//! - **Proactive preemption** ([`pick_victim`]): when a target instance
//!   cannot scale up because neighbours occupy the memory, it may preempt a
//!   co-resident instance with a *strictly smaller* batch, smallest first
//!   (§VIII-A, Fig. 20b) — growing instances never disintegrate bigger ones.

use cluster::World;
use engine::instance::InstanceId;
use workload::request::ModelId;

/// Orders a model's instances for admission attempts.
///
/// CPU instances precede GPU instances when `prefer_cpu`; within a kind,
/// descending batch size when `bin_pack` (the §VIII-B rule), else instance
/// id order (the naive "first created" order used by the consolidation
/// ablation).
pub fn order_candidates(
    w: &World,
    model: ModelId,
    prefer_cpu: bool,
    bin_pack: bool,
) -> Vec<InstanceId> {
    let mut out: Vec<(bool, i64, InstanceId)> = w
        .model_instances(model)
        .iter()
        .map(|&id| {
            let (node, _) = w.instance_placement(id).expect("listed instance");
            let is_cpu = w.node_hw(node).kind.is_cpu();
            let batch = w.instance(id).map(|i| i.live_count() as i64).unwrap_or(0);
            // Sort keys: CPU-first (when preferred), then biggest batch.
            let kind_rank = if prefer_cpu && is_cpu { 0 } else { 1 };
            (
                kind_rank == 0,
                if bin_pack { -batch } else { id.0 as i64 },
                id,
            )
        })
        .map(|(cpu_first, key, id)| (!cpu_first, key, id))
        .collect();
    out.sort_by_key(|&(kind_rank, key, id)| (kind_rank, key, id.0));
    out.into_iter().map(|(_, _, id)| id).collect()
}

/// Picks the preemption victim for `target` on its node: the co-resident
/// instance with the smallest batch that is still strictly smaller than the
/// target's, idle at the engine level (not mid-iteration or mid-rescale),
/// and fully loaded.
pub fn pick_victim(w: &World, target: InstanceId) -> Option<InstanceId> {
    let (node, _) = w.instance_placement(target)?;
    let target_batch = w.instance(target)?.live_count();
    let mut best: Option<(u32, InstanceId)> = None;
    for &id in w.node_instances(node) {
        if id == target {
            continue;
        }
        let Some(inst) = w.instance(id) else { continue };
        if inst.busy || inst.scaling {
            continue;
        }
        if inst.state != engine::instance::InstanceState::Active {
            continue;
        }
        let batch = inst.live_count();
        if batch >= target_batch {
            continue; // only smaller-batch neighbours may be preempted
        }
        if best.is_none_or(|(b, _)| batch < b) {
            best = Some((batch, id));
        }
    }
    best.map(|(_, id)| id)
}

/// Memory that unloading `victim` would return to its node.
pub fn victim_footprint(w: &World, victim: InstanceId) -> u64 {
    w.instance(victim).map(|i| i.footprint_bytes()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, NodeId, WorldConfig};
    use engine::request::RunningRequest;
    use hwmodel::ModelSpec;
    use simcore::time::SimTime;
    use workload::request::{Request, RequestId, SloClass};

    const GB: u64 = 1_000_000_000;

    fn world() -> World {
        // Node 0: CPU; node 1: GPU.
        let cluster = ClusterSpec::heterogeneous(1, 1);
        World::new(
            &cluster,
            vec![ModelSpec::llama2_7b(), ModelSpec::llama3_2_3b()],
            WorldConfig::default(),
        )
    }

    fn admit_n(w: &mut World, inst: InstanceId, n: usize, base: u64) {
        for k in 0..n {
            w.admit(
                inst,
                RunningRequest::new(Request {
                    id: RequestId(base + k as u64),
                    model: w.instance(inst).unwrap().model,
                    arrival: SimTime::ZERO,
                    input_len: 128,
                    output_len: 8,
                    class: SloClass::default(),
                    session: Default::default(),
                }),
            );
        }
    }

    #[test]
    fn candidates_cpu_first_then_largest_batch() {
        let mut w = world();
        let m = ModelId(0);
        let gpu_small = w.create_instance(m, NodeId(1), 0, GB).unwrap();
        let gpu_big = w.create_instance(m, NodeId(1), 0, GB).unwrap();
        let cpu = w.create_instance(m, NodeId(0), 0, GB).unwrap();
        admit_n(&mut w, gpu_big, 5, 0);
        admit_n(&mut w, gpu_small, 1, 10);
        admit_n(&mut w, cpu, 2, 20);

        let order = order_candidates(&w, m, true, true);
        assert_eq!(order, vec![cpu, gpu_big, gpu_small]);

        // Without CPU preference, pure batch order.
        let order = order_candidates(&w, m, false, true);
        assert_eq!(order, vec![gpu_big, cpu, gpu_small]);

        // Without bin-packing, creation (id) order per kind.
        let order = order_candidates(&w, m, true, false);
        assert_eq!(order, vec![cpu, gpu_small, gpu_big]);
    }

    #[test]
    fn victim_is_smallest_strictly_smaller_neighbor() {
        let mut w = world();
        let target = w.create_instance(ModelId(0), NodeId(1), 0, GB).unwrap();
        let small = w.create_instance(ModelId(1), NodeId(1), 0, GB).unwrap();
        let mid = w.create_instance(ModelId(1), NodeId(1), 0, GB).unwrap();
        // Activate all (skip cold start mechanics for the unit test).
        for id in [target, small, mid] {
            w.instance_mut(id).unwrap().activate(SimTime::ZERO);
        }
        admit_n(&mut w, target, 4, 0);
        admit_n(&mut w, small, 1, 10);
        admit_n(&mut w, mid, 2, 20);
        assert_eq!(pick_victim(&w, target), Some(small));
        // Equal-or-larger neighbours are never victims: shrink the target.
        let tiny = w.create_instance(ModelId(1), NodeId(1), 0, GB).unwrap();
        w.instance_mut(tiny).unwrap().activate(SimTime::ZERO);
        admit_n(&mut w, tiny, 1, 30);
        // target batch is 4; small(1), mid(2), tiny(1): smallest wins (id order
        // among equals — `small` was found first and ties keep the first).
        assert_eq!(pick_victim(&w, target), Some(small));
    }

    #[test]
    fn no_victim_when_neighbors_not_smaller() {
        let mut w = world();
        let target = w.create_instance(ModelId(0), NodeId(1), 0, GB).unwrap();
        let peer = w.create_instance(ModelId(1), NodeId(1), 0, GB).unwrap();
        for id in [target, peer] {
            w.instance_mut(id).unwrap().activate(SimTime::ZERO);
        }
        admit_n(&mut w, target, 2, 0);
        admit_n(&mut w, peer, 2, 10);
        assert_eq!(pick_victim(&w, target), None);
    }

    #[test]
    fn loading_neighbors_are_not_victims() {
        let mut w = world();
        let target = w.create_instance(ModelId(0), NodeId(1), 0, GB).unwrap();
        let loading = w.create_instance(ModelId(1), NodeId(1), 0, GB).unwrap();
        w.instance_mut(target).unwrap().activate(SimTime::ZERO);
        admit_n(&mut w, target, 3, 0);
        admit_n(&mut w, loading, 1, 10);
        // `loading` was never activated.
        assert_eq!(pick_victim(&w, target), None);
    }
}
