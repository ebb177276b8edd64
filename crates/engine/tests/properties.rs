//! Property-based tests for the engine substrate: block accounting can
//! never leak or go negative, whatever sequence of operations runs.

use proptest::prelude::*;

use engine::blocks::{BlockPool, BLOCK_TOKENS};
use engine::instance::{DecodeOutcome, Instance, InstanceId};
use engine::request::RunningRequest;
use hwmodel::ModelSpec;
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, Request, RequestId, SessionTag, SloClass};

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc(u64),
    Free(u64),
    Resize(u64),
}

fn arb_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (1u64..64).prop_map(PoolOp::Alloc),
        (1u64..64).prop_map(PoolOp::Free),
        (0u64..8_000_000_000).prop_map(PoolOp::Resize),
    ]
}

proptest! {
    #[test]
    fn pool_accounting_is_sound(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut pool = BlockPool::new(524_288, 4_000_000_000);
        let mut live = 0u64;
        for op in ops {
            match op {
                PoolOp::Alloc(n) => {
                    if pool.try_alloc(n) {
                        live += n;
                    }
                }
                PoolOp::Free(n) => {
                    let n = n.min(live);
                    if n > 0 {
                        pool.free(n);
                        live -= n;
                    }
                }
                PoolOp::Resize(bytes) => {
                    let ok = pool.try_resize(bytes);
                    if ok {
                        prop_assert!(pool.capacity_blocks() >= live);
                    }
                }
            }
            prop_assert_eq!(pool.used_blocks(), live);
            prop_assert!(pool.used_blocks() <= pool.capacity_blocks());
            prop_assert!(pool.utilization() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn blocks_for_tokens_is_ceiling(tokens in 0u32..100_000) {
        let pool = BlockPool::new(1024, 1_000_000);
        let blocks = pool.blocks_for_tokens(tokens);
        prop_assert!(blocks * u64::from(BLOCK_TOKENS) >= u64::from(tokens));
        if blocks > 0 {
            prop_assert!((blocks - 1) * u64::from(BLOCK_TOKENS) < u64::from(tokens));
        }
    }

    /// Any admission order followed by full service drains the instance
    /// back to zero KV usage.
    #[test]
    fn instance_drains_to_zero(
        reqs in prop::collection::vec((16u32..2048, 1u32..16), 1..12),
    ) {
        let spec = ModelSpec::llama2_7b();
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            64_000_000_000, // plenty of KV
            SimTime::ZERO,
        );
        inst.activate(SimTime::ZERO);
        for (i, &(input, output)) in reqs.iter().enumerate() {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: input,
                output_len: output,
                class: SloClass::default(),
                session: Default::default(),
            }));
        }
        // Serve: prefill everything, then decode until empty.
        let now = SimTime::from_secs(1);
        let waiting: Vec<RequestId> = inst
            .requests()
            .iter()
            .map(|r| r.req.id)
            .collect();
        for id in waiting {
            prop_assert!(inst.begin_prefill(id).is_some());
            inst.finish_prefill(id, now, SimDuration::from_millis(10));
        }
        let mut guard = 0;
        while inst.batch_size() > 0 {
            inst.begin_decode();
            let out = inst.finish_decode(now, SimDuration::from_millis(10));
            prop_assert!(out.alloc_failures.is_empty(), "KV was oversized");
            guard += 1;
            prop_assert!(guard < 64, "decode loop must terminate");
        }
        prop_assert_eq!(inst.live_count(), 0);
        prop_assert_eq!(inst.kv_used_bytes(), 0, "all KV returned");
        prop_assert!(inst.idle_since.is_some());
        // Token accounting: prefill produced 1 token per request, decode the
        // rest.
        let expected: u64 = reqs.iter().map(|&(_, o)| o as u64).sum();
        prop_assert_eq!(inst.decode_tokens, expected);
    }

    /// Migration at any point conserves requests and frees exactly their KV.
    #[test]
    fn migration_conserves_requests(
        n in 1usize..8,
        migrate_ix in 0usize..8,
    ) {
        let spec = ModelSpec::llama2_7b();
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            64_000_000_000,
            SimTime::ZERO,
        );
        inst.activate(SimTime::ZERO);
        for i in 0..n {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: 256,
                output_len: 32,
                class: SloClass::default(),
                session: Default::default(),
            }));
        }
        let victim = RequestId((migrate_ix % n) as u64);
        let before = inst.live_count();
        let moved = inst.remove_for_migration(victim, SimTime::from_secs(1));
        prop_assert_eq!(inst.live_count(), before - 1);
        prop_assert_eq!(moved.req.id, victim);
        prop_assert_eq!(moved.kv_blocks, 0);
        prop_assert_eq!(moved.migrations, 1);
    }

    /// `finish_decode_into` on a dirty, reused buffer is `finish_decode`:
    /// the same produced tokens, allocation failures and finished requests,
    /// and the same instance state afterwards, iteration after iteration.
    /// Tight grants make some iterations fail to allocate; session tags
    /// with retention on exercise the park-on-finish path.
    #[test]
    fn finish_decode_into_matches_finish_decode(
        reqs in prop::collection::vec((16u32..600, 1u32..24), 1..10),
        grant_blocks in 4u64..96,
        retain in any::<bool>(),
    ) {
        let spec = ModelSpec::llama2_7b();
        let block_bytes = spec.kv_bytes_per_token() * u64::from(BLOCK_TOKENS);
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            grant_blocks * block_bytes,
            SimTime::ZERO,
        );
        inst.retain_sessions = retain;
        inst.activate(SimTime::ZERO);
        for (i, &(input, output)) in reqs.iter().enumerate() {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: input,
                output_len: output,
                class: SloClass::default(),
                session: if i % 2 == 0 { SessionTag::new(i as u64 + 1, 0) } else { Default::default() },
            }));
        }
        let ids: Vec<RequestId> = inst.requests().iter().map(|r| r.req.id).collect();
        for id in ids {
            if inst.begin_prefill(id).is_some() {
                inst.finish_prefill(id, SimTime::from_secs(1), SimDuration::from_millis(10));
            }
        }
        let junk = RunningRequest::new(Request {
            id: RequestId(999),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: 1,
            output_len: 1,
            class: SloClass::default(),
            session: Default::default(),
        });
        let mut buf = DecodeOutcome {
            produced: vec![(RequestId(998), 3, true)],
            alloc_failures: vec![RequestId(997)],
            finished: vec![junk],
        };
        let mut step = 0u64;
        while inst.batch_size() > 0 && step < 64 {
            step += 1;
            let now = SimTime::from_secs(1 + step);
            inst.begin_decode();
            let mut fresh = inst.clone();
            let want = fresh.finish_decode(now, SimDuration::from_millis(10));
            inst.finish_decode_into(now, SimDuration::from_millis(10), &mut buf);
            prop_assert_eq!(&buf.produced, &want.produced);
            prop_assert_eq!(&buf.alloc_failures, &want.alloc_failures);
            prop_assert_eq!(&buf.finished, &want.finished);
            prop_assert_eq!(format!("{inst:?}"), format!("{fresh:?}"));
            if buf.produced.is_empty() {
                break; // every sequence is stuck on KV; nothing will move
            }
        }
    }

    /// Eq. 2 is monotone in load and respects the L_min floor.
    #[test]
    fn kv_required_monotone(
        loads in prop::collection::vec(64u32..4096, 0..10),
        avg in 1f64..1024.0,
        lmin in 1u32..8192,
    ) {
        let spec = ModelSpec::llama2_7b();
        let c = spec.kv_bytes_per_token();
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            1_000_000_000,
            SimTime::ZERO,
        );
        inst.activate(SimTime::ZERO);
        let mut last = inst.kv_required_bytes(avg, lmin);
        prop_assert!(last >= (lmin as u64) * c);
        for (i, &input) in loads.iter().enumerate() {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: input,
                output_len: 8,
                class: SloClass::default(),
                session: Default::default(),
            }));
            let next = inst.kv_required_bytes(avg, lmin);
            prop_assert!(next >= last, "Eq.2 must grow with admissions");
            last = next;
        }
    }
}
