//! Direct unit tests of the `World` API: placement queries, memory ledger
//! transitions, estimation helpers, and the operation lifecycle — below the
//! driver, above the engine.

use cluster::{ClusterSpec, MemError, NodeId, World, WorldConfig};
use engine::instance::InstanceId;
use engine::request::RunningRequest;
use hwmodel::{HardwareKind, ModelSpec, NoiseModel, PerfOracle};
use simcore::time::SimTime;
use workload::request::{ModelId, Request, RequestId, SloClass};

const GB: u64 = 1_000_000_000;

fn world() -> World {
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    World::new(
        &ClusterSpec::heterogeneous(1, 1),
        vec![ModelSpec::llama2_7b(), ModelSpec::codellama_34b()],
        cfg,
    )
}

fn rr(id: u64, model: u32) -> RunningRequest {
    RunningRequest::new(Request {
        id: RequestId(id),
        model: ModelId(model),
        arrival: SimTime::ZERO,
        input_len: 256,
        output_len: 8,
        class: SloClass::default(),
        session: Default::default(),
    })
}

/// Noiseless prefill estimate for an instance's placement: its slot
/// group's share and tensor-parallel degree on its node's hardware.
fn prefill_s(w: &World, inst: InstanceId, len: u32) -> f64 {
    let i = w.instance(inst).expect("live");
    let (node, _) = w.instance_placement(inst).expect("live");
    let share = w.instance_share(inst);
    w.perf()
        .prefill_time_tp(&i.spec, w.node_hw(node), len, share, i.tp)
}

/// Noiseless decode estimate for an instance's placement.
fn decode_s(w: &World, inst: InstanceId, batch: u32, ctx: u64) -> f64 {
    let i = w.instance(inst).expect("live");
    let (node, _) = w.instance_placement(inst).expect("live");
    let share = w.instance_share(inst);
    w.perf()
        .decode_time_tp(&i.spec, w.node_hw(node), batch, ctx, share, i.tp)
}

#[test]
fn node_views_and_kinds() {
    let w = world();
    let of_kind = |kind| -> Vec<NodeId> {
        w.node_ids()
            .filter(|&n| w.node_hw(n).kind == kind)
            .collect()
    };
    assert_eq!(w.node_ids().count(), 2);
    assert_eq!(of_kind(HardwareKind::CpuAccel), vec![NodeId(0)]);
    assert_eq!(of_kind(HardwareKind::Gpu), vec![NodeId(1)]);
    assert_eq!(w.slot_count(NodeId(0)), 1);
    assert_eq!(w.slot_share(NodeId(0), 0), 1.0);
    assert_eq!(w.node_available_bytes(NodeId(1)), 80 * GB);
}

#[test]
fn create_commits_and_unload_releases() {
    let mut w = world();
    let before = w.node_available_bytes(NodeId(1));
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let weights = ModelSpec::llama2_7b().weights_bytes();
    assert_eq!(w.node_available_bytes(NodeId(1)), before - weights - 4 * GB);
    assert_eq!(w.node_instances(NodeId(1)), [inst]);
    assert_eq!(w.model_instances(ModelId(0)), [inst]);
    assert_eq!(w.instance_placement(inst), Some((NodeId(1), 0)));
    // Unloading returns every committed byte.
    w.unload_instance(inst);
    assert_eq!(w.node_available_bytes(NodeId(1)), before);
    assert!(w.instance(inst).is_none());
}

#[test]
fn unservable_models_are_rejected_up_front() {
    let mut w = world();
    // 34B on the AMX CPU: §IV-A2 says no.
    let err = w.create_instance(ModelId(1), NodeId(0), 0, GB).unwrap_err();
    assert_eq!(err, MemError::Unservable);
    // And the ledger is untouched.
    assert_eq!(w.node_available_bytes(NodeId(0)), 192 * GB);
}

#[test]
fn scale_up_commits_at_issue_scale_down_at_completion() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let after_create = w.node_available_bytes(NodeId(1));
    // Scale up 4 → 8 GB: the delta is committed immediately.
    w.start_kv_scale(inst, 8 * GB).expect("scale up");
    assert_eq!(w.node_available_bytes(NodeId(1)), after_create - 4 * GB);
    // Grant only changes when the op completes (driver applies it); here we
    // verify the engine still reports the old capacity mid-flight.
    assert_eq!(w.instance(inst).unwrap().kv_capacity_bytes(), 4 * GB);
    assert!(w.instance(inst).unwrap().scaling);
}

#[test]
fn oversized_scale_up_is_rejected_and_counted() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let err = w.start_kv_scale(inst, 200 * GB).unwrap_err();
    assert!(matches!(err, MemError::WouldOom { .. }));
    assert_eq!(w.metrics.oom_incidents, 1);
    // No partial commit on rejection.
    let weights = ModelSpec::llama2_7b().weights_bytes();
    assert_eq!(
        w.node_available_bytes(NodeId(1)),
        80 * GB - weights - 4 * GB
    );
}

#[test]
fn estimates_are_noiseless_and_placement_aware() {
    let mut w = world();
    let cpu_inst = w
        .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
        .expect("fits");
    let gpu_inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let cpu_t = prefill_s(&w, cpu_inst, 1024);
    let gpu_t = prefill_s(&w, gpu_inst, 1024);
    assert!(
        cpu_t > gpu_t * 3.0,
        "CPU prefill far slower: {cpu_t} vs {gpu_t}"
    );
    // Repeated estimates are identical (no noise).
    assert_eq!(cpu_t, prefill_s(&w, cpu_inst, 1024));
    // Decode estimate grows with batch.
    assert!(decode_s(&w, gpu_inst, 8, 8192) > decode_s(&w, gpu_inst, 1, 1024));
    // Load estimate matches the loader bandwidth ballpark.
    let load = w.estimate_load_s(ModelId(0), NodeId(1));
    assert!((0.8..1.2).contains(&load), "7B GPU load {load}");
}

#[test]
fn kv_transfer_delay_scales_with_context() {
    let w = world();
    let d1 = w.kv_transfer_delay(ModelId(0), 1024);
    let d2 = w.kv_transfer_delay(ModelId(0), 4096);
    // 1024 tokens × 0.5 MiB = 0.54 GB over 12.5 GB/s ≈ 43 ms.
    assert!((0.03..0.06).contains(&d1.as_secs_f64()), "{d1}");
    assert!(d2.as_micros() > 3 * d1.as_micros());
}

#[test]
fn admit_decoding_respects_scaling_and_capacity() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, GB)
        .expect("fits");
    // While a rescale is in flight, handoffs are refused.
    w.start_kv_scale(inst, 2 * GB).expect("scale");
    let mut moved = rr(1, 0);
    moved.phase = engine::request::ReqPhase::Decoding;
    moved.tokens_out = 4;
    assert!(!w.admit_decoding(inst, moved.clone()));
    // Normal admission works.
    let inst2 = w
        .create_instance(ModelId(0), NodeId(0), 0, GB)
        .expect("fits");
    assert!(w.admit_decoding(inst2, moved));
    assert_eq!(w.instance(inst2).unwrap().live_count(), 1);
}

#[test]
#[should_panic(expected = "unloading a non-idle instance")]
fn unload_with_live_requests_panics() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, GB)
        .expect("fits");
    w.admit(inst, rr(1, 0));
    w.unload_instance(inst);
}

#[test]
fn drop_request_resolves_once() {
    let mut w = world();
    let r = rr(9, 0);
    // Build records for one request so drop bookkeeping has a target.
    w.metrics = cluster::RunMetrics::for_trace(&[Request {
        id: RequestId(0),
        model: ModelId(0),
        arrival: SimTime::ZERO,
        input_len: 16,
        output_len: 1,
        class: SloClass::default(),
        session: Default::default(),
    }]);
    let mut r0 = r;
    r0.req.id = RequestId(0);
    w.drop_request(&r0);
    w.drop_request(&r0); // idempotent
    assert_eq!(w.metrics.dropped, 1);
    assert!(w.metrics.records[0].dropped);
}

#[test]
fn tp_groups_claim_and_release_slot_sets() {
    use cluster::NodeSpec;
    use engine::instance::IterationKind;
    use hwmodel::HardwareSpec;
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
    };
    let mut w = World::new(
        &cluster,
        vec![ModelSpec::llama2_13b().with_tp(2), ModelSpec::llama2_7b()],
        cfg,
    );
    let before = w.node_available_bytes(NodeId(0));
    let tp2 = w
        .create_instance_group(ModelId(0), NodeId(0), &[0, 1], 8 * GB)
        .expect("group fits");
    // Placement views: primary slot + full group, on every spanned slot.
    assert_eq!(w.instance_placement(tp2), Some((NodeId(0), 0)));
    assert_eq!(w.instance_slots(tp2), Some(&[0usize, 1][..]));
    assert_eq!(w.slot_instances(NodeId(0), 0), [tp2]);
    assert_eq!(w.slot_instances(NodeId(0), 1), [tp2]);
    assert!(w.slot_instances(NodeId(0), 2).is_empty());
    assert!((w.instance_share(tp2) - 0.5).abs() < 1e-12);
    // One footprint on the node ledger, not one per slot.
    let weights = ModelSpec::llama2_13b().weights_bytes();
    assert_eq!(w.node_available_bytes(NodeId(0)), before - weights - 8 * GB);
    // Iterations occupy the whole group.
    w.instance_mut(tp2).unwrap().activate(SimTime::ZERO);
    w.admit(tp2, rr(0, 0));
    // (give the ledger a record table so token accounting has a target)
    w.metrics = cluster::RunMetrics::for_trace(&[Request {
        id: RequestId(0),
        model: ModelId(0),
        arrival: SimTime::ZERO,
        input_len: 256,
        output_len: 8,
        class: SloClass::default(),
        session: Default::default(),
    }]);
    w.start_iteration(tp2, IterationKind::Prefill(RequestId(0)))
        .expect("group free");
    assert!(w.slot_busy(NodeId(0), 0) && w.slot_busy(NodeId(0), 1));
    assert!(!w.slot_busy(NodeId(0), 2));
    assert!(w.instance_group_busy(tp2));
    // A second iteration on the same group is refused, not started.
    assert_eq!(
        w.start_iteration(tp2, IterationKind::Decode).unwrap_err(),
        cluster::world::StartError::GroupBusy
    );
}

#[test]
fn tp_group_estimates_pay_the_interconnect() {
    use cluster::NodeSpec;
    use hwmodel::HardwareSpec;
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
    };
    let mut w = World::new(
        &cluster,
        vec![
            ModelSpec::llama2_13b(),
            ModelSpec::llama2_13b().with_tp(2).replica(1),
        ],
        cfg,
    );
    let one = w
        .create_instance_group(ModelId(0), NodeId(0), &[0], 4 * GB)
        .expect("fits");
    let two = w
        .create_instance_group(ModelId(1), NodeId(0), &[1, 2], 4 * GB)
        .expect("fits");
    let t1 = prefill_s(&w, one, 2048);
    let t2 = prefill_s(&w, two, 2048);
    // Two devices are faster than one, but sublinearly: the all-reduce
    // term discounts the doubled compute.
    assert!(t2 < t1, "TP=2 must beat TP=1: {t2} vs {t1}");
    assert!(t2 > t1 / 2.0, "TP=2 must be under 2x: {t2} vs {t1}");
    let d1 = decode_s(&w, one, 16, 16 * 1024);
    let d2 = decode_s(&w, two, 16, 16 * 1024);
    assert!(d2 < d1 && d2 > d1 / 2.0, "decode discount: {d2} vs {d1}");
}

#[test]
#[should_panic(expected = "slot group size must match")]
fn mismatched_group_size_panics() {
    let mut w = world();
    // llama2_7b deploys at TP=1; a 1-slot node can't even express 2 slots,
    // but the degree check fires first.
    let _ = w.create_instance_group(ModelId(0), NodeId(1), &[0, 0], GB);
}

#[test]
fn instance_ids_are_unique_and_ordered() {
    let mut w = world();
    let a = w.create_instance(ModelId(0), NodeId(0), 0, GB).unwrap();
    let b = w.create_instance(ModelId(0), NodeId(1), 0, GB).unwrap();
    assert!(b > a);
    assert_eq!(w.model_instances(ModelId(0)), [a, b]);
    assert_ne!(a, InstanceId(0), "ids start at 1");
}
