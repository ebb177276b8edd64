//! The deterministic event loop.
//!
//! [`Simulation`] pairs a [`World`] with one [`Policy`], replays a
//! [`Trace`], and returns [`RunMetrics`]. All systems in the paper's
//! evaluation run under this one driver — only the policy differs — so any
//! difference in the output metrics is attributable to scheduling, exactly
//! like the paper's "all systems use the same inference engines" fairness
//! rule (§IX-A).
//!
//! A run is a pure function of `(cluster, models, cfg, trace)`: all
//! randomness flows from `cfg.seed` and no global state is consulted, so
//! the `bench` sweep driver can replay independent cells concurrently on
//! worker threads and still collect byte-identical results in any order.
//! Construction is cheap relative to a run (a `World` is vectors and an
//! empty event heap), so workers build each simulation from scratch.

use engine::instance::{DecodeOutcome, IterationKind};
use engine::request::RunningRequest;
use hwmodel::ModelSpec;
use simcore::time::SimTime;
use workload::request::Trace;

use crate::metrics::RunMetrics;
use crate::node::ClusterSpec;
use crate::policy::Policy;
use crate::world::{ClusterEvent, Event, World, WorldConfig};

/// A policy bound to a world, ready to replay a trace.
pub struct Simulation<P: Policy> {
    /// Cluster state.
    pub world: World,
    /// System under test.
    pub policy: P,
    /// The decode-outcome buffer every `IterationDone` refills, so a decode
    /// iteration allocates nothing once it has grown to the largest batch.
    decode: DecodeOutcome,
}

impl<P: Policy> Simulation<P> {
    /// Builds a simulation over `cluster` with the given model registry.
    pub fn new(cluster: &ClusterSpec, models: Vec<ModelSpec>, cfg: WorldConfig, policy: P) -> Self {
        Simulation {
            world: World::new(cluster, models, cfg),
            policy,
            decode: DecodeOutcome::default(),
        }
    }

    /// Replays `trace` to completion (or until the drain grace expires) and
    /// returns the metrics.
    ///
    /// # Panics
    /// Panics if a request references a model outside the registry.
    pub fn run(mut self, trace: &Trace) -> RunMetrics {
        let w = &mut self.world;
        w.metrics = RunMetrics::for_trace(&trace.requests);
        w.metrics.usage_stride = w.cfg.usage_sample_stride;
        w.outstanding = trace.len();
        for r in &trace.requests {
            assert!(
                (r.model.0 as usize) < w.model_count(),
                "request references unregistered model {}",
                r.model.0
            );
        }
        for (i, r) in trace.requests.iter().enumerate() {
            w.events.push(r.arrival, Event::Arrival(i));
        }
        w.events.push(SimTime::ZERO, Event::Sample);
        let last_arrival = trace
            .requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        let hard_stop = last_arrival + crate::world::DRAIN_GRACE;
        let mut arrivals_left = trace.len();

        while let Some((t, ev)) = self.world.events.pop() {
            if t > hard_stop {
                break;
            }
            self.world.set_now(t);
            if self.world.outstanding == 0 && arrivals_left == 0 {
                break;
            }
            self.dispatch(ev, &mut arrivals_left, trace);
            self.drain_wakes();
        }
        let end = self.world.now();
        self.world.finalize_lifetimes();
        self.world.metrics.finish(end);
        // Anything unresolved at the hard stop counts as dropped.
        for rec in &mut self.world.metrics.records {
            if rec.completed.is_none() && !rec.dropped {
                rec.dropped = true;
                self.world.metrics.dropped += 1;
            }
        }
        std::mem::take(&mut self.world.metrics)
    }

    fn dispatch(&mut self, ev: Event, arrivals_left: &mut usize, trace: &Trace) {
        let w = &mut self.world;
        match ev {
            Event::Arrival(idx) => {
                *arrivals_left -= 1;
                let rr = RunningRequest::new(trace.requests[idx]);
                self.policy.on_arrival(w, rr);
            }
            Event::IterationDone {
                inst,
                kind,
                elapsed,
            } => {
                // The instance may have been destroyed by a NodeFail while
                // this iteration was in flight; its work is simply lost.
                if w.instance(inst).is_none() {
                    return;
                }
                let now = w.now();
                match kind {
                    IterationKind::Prefill(req) => {
                        let (tokens_out, finished) = w
                            .instance_mut(inst)
                            // detlint::allow(D005, "the event dispatch above already dropped stale IterationDone events for unloaded instances")
                            .expect("checked above")
                            .finish_prefill(req, now, elapsed);
                        w.count_decode_tokens(inst, 1);
                        let slo = w.slo_for_id(req);
                        w.metrics.on_token(req, tokens_out, now, &slo);
                        if let Some(rr) = finished {
                            w.outstanding = w.outstanding.saturating_sub(1);
                            w.note_request_parked(inst, &rr);
                            self.policy.on_request_done(w, inst, &rr);
                        } else {
                            self.policy.on_prefill_done(w, inst, req);
                        }
                    }
                    IterationKind::Decode => {
                        let outcome = &mut self.decode;
                        w.instance_mut(inst)
                            // detlint::allow(D005, "the event dispatch above already dropped stale IterationDone events for unloaded instances")
                            .expect("checked above")
                            .finish_decode_into(now, elapsed, outcome);
                        w.count_decode_tokens(inst, outcome.produced.len() as u64);
                        for &(id, tokens_out, _) in &outcome.produced {
                            let slo = w.slo_for_id(id);
                            w.metrics.on_token(id, tokens_out, now, &slo);
                        }
                        for rr in &outcome.finished {
                            w.outstanding = w.outstanding.saturating_sub(1);
                            w.note_request_parked(inst, rr);
                            self.policy.on_request_done(w, inst, rr);
                        }
                        for &id in &outcome.alloc_failures {
                            self.policy.on_alloc_failure(w, inst, id);
                        }
                    }
                }
                w.schedule_keepalive(inst);
                w.release_slot(inst);
                self.sweep_draining(inst);
            }
            Event::LoadDone {
                inst,
                elapsed,
                epoch,
            } => {
                // Contended loads are rescheduled whenever their node's
                // loading channel changes membership; only the event
                // matching the channel's current epoch completes the load.
                let Some(elapsed) = w.resolve_load_done(inst, elapsed, epoch) else {
                    return;
                };
                w.apply_load_done(inst, elapsed);
                self.policy.on_load_done(w, inst);
                self.sweep_draining(inst);
            }
            Event::ScaleDone {
                inst,
                from_bytes,
                to_bytes,
                elapsed,
            } => {
                w.apply_scale_done(inst, from_bytes, to_bytes, elapsed);
                self.policy.on_scale_done(w, inst);
                self.sweep_draining(inst);
            }
            Event::Cluster(ev) => {
                let displaced = w.apply_cluster_event(&ev);
                self.policy.on_node_event(w, &ev, displaced);
            }
            Event::KeepAlive { inst, marker } => {
                let still_idle = w
                    .instance(inst)
                    .map(|i| i.idle_since == Some(marker))
                    .unwrap_or(false);
                if still_idle {
                    if w.keepalive_defer(inst) {
                        // Cache-aware keep-alive: evicting the fleet's last
                        // warm copy is deferred one more period (same idle
                        // marker, so activity still cancels the timer).
                        let at = w.now() + w.cfg.keep_alive;
                        w.events.push(at, Event::KeepAlive { inst, marker });
                    } else {
                        self.policy.on_keepalive(w, inst);
                    }
                }
            }
            Event::Timer(payload) => self.policy.on_timer(w, payload),
            Event::Sample => {
                w.take_sample();
                if w.outstanding > 0 || *arrivals_left > 0 {
                    let period = w.cfg.sample_period;
                    let at = w.now() + period;
                    w.events.push(at, Event::Sample);
                }
            }
        }
    }

    /// If `inst` sits on a draining node and just went idle, unload it and
    /// hand its requests back to the policy — the deferred half of a
    /// [`ClusterEvent::NodeDrain`].
    fn sweep_draining(&mut self, inst: engine::instance::InstanceId) {
        let Some((node, _)) = self.world.instance_placement(inst) else {
            return;
        };
        if self.world.node_health(node) != crate::world::NodeHealth::Draining {
            return;
        }
        let displaced = self.world.drain_idle_instances(node);
        if !displaced.is_empty() {
            self.policy
                .on_node_event(&mut self.world, &ClusterEvent::NodeDrain(node), displaced);
        }
    }

    fn drain_wakes(&mut self) {
        // One policy poke per woken slot; policies decline by not starting
        // anything, which leaves the slot free until the next event.
        while let Some((node, slot)) = self.world.wake.pop() {
            if self.world.slot_busy(node, slot) {
                continue;
            }
            let has_work = self.world.slot_instances(node, slot).iter().any(|&i| {
                self.world
                    .instance(i)
                    .map(|x| x.has_work())
                    .unwrap_or(false)
            });
            if has_work {
                self.policy.on_slot_free(&mut self.world, node, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use engine::instance::InstanceId;
    use hwmodel::NoiseModel;
    use simcore::time::SimDuration;
    use workload::request::{ModelId, Request, RequestId, SloClass};

    /// A one-node, one-model greedy policy used to exercise the driver: it
    /// creates a single instance on node 0 and runs everything FIFO.
    struct Greedy {
        inst: Option<InstanceId>,
        grant: u64,
    }

    impl Policy for Greedy {
        fn name(&self) -> &str {
            "greedy-test"
        }

        fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
            let inst = match self.inst {
                Some(i) if w.instance(i).is_some() => i,
                _ => {
                    let id = w
                        .create_instance(rr.req.model, NodeId(0), 0, self.grant)
                        .expect("node 0 fits");
                    w.note_cold_start_request(rr.req.id);
                    self.inst = Some(id);
                    id
                }
            };
            w.admit(inst, rr);
        }

        fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
            let slo = w.slo();
            let now = w.now();
            for &inst in w.slot_instances(node, slot) {
                let Some(i) = w.instance(inst) else { continue };
                if !i.has_work() {
                    continue;
                }
                if let Some((_, kind)) = i.most_urgent(now, &slo) {
                    let _ = w.start_iteration(inst, kind);
                    return;
                }
            }
        }
    }

    fn small_trace(n: u64) -> Trace {
        let reqs = (0..n)
            .map(|i| Request {
                id: RequestId(i),
                model: ModelId(0),
                arrival: SimTime::from_secs(i),
                input_len: 256,
                output_len: 5,
                class: SloClass::default(),
                session: Default::default(),
            })
            .collect();
        Trace::new(reqs, 1, SimDuration::from_secs(n))
    }

    fn sim() -> Simulation<Greedy> {
        let cluster = ClusterSpec::heterogeneous(0, 1);
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            ..WorldConfig::default()
        };
        Simulation::new(
            &cluster,
            vec![ModelSpec::llama2_7b()],
            cfg,
            Greedy {
                inst: None,
                grant: 8 * 1_000_000_000,
            },
        )
    }

    #[test]
    fn all_requests_complete() {
        let trace = small_trace(10);
        let m = sim().run(&trace);
        assert_eq!(m.total(), 10);
        assert_eq!(
            m.records.iter().filter(|r| r.completed.is_some()).count(),
            10
        );
        assert_eq!(m.dropped, 0);
        // Every request produced its 5 tokens.
        assert_eq!(m.gpu_decode_tokens, 50);
        assert_eq!(m.cold_starts, 1);
    }

    #[test]
    fn cold_start_grace_applies_to_first_request() {
        let trace = small_trace(1);
        let m = sim().run(&trace);
        let rec = &m.records[0];
        assert!(rec.cold_start);
        // 7B at 14 GB/s loads in ~1 s.
        assert!(
            (rec.grace.as_secs_f64() - 0.96).abs() < 0.1,
            "{:?}",
            rec.grace
        );
        assert!(rec.slo_met(), "grace should cover the cold start");
    }

    #[test]
    fn slo_violations_detected_under_load() {
        // 100 near-simultaneous short requests on one GPU: the prefill storm
        // (~3.5 s of back-to-back prefills against a 0.5 s TTFT floor) must
        // violate some SLOs but not all.
        let reqs = (0..100u64)
            .map(|i| Request {
                id: RequestId(i),
                model: ModelId(0),
                arrival: SimTime::from_millis(i),
                input_len: 256,
                output_len: 20,
                class: SloClass::default(),
                session: Default::default(),
            })
            .collect();
        let trace = Trace::new(reqs, 1, SimDuration::from_secs(1));
        let mut s = sim();
        s.policy.grant = 40 * 1_000_000_000;
        let m = s.run(&trace);
        assert!(m.slo_met() < 100, "one node cannot absorb this burst");
        // Without admission control the prefill storm starves decodes —
        // the very failure mode SLINFER's shadow validation exists to avoid.
        let violated = m
            .records
            .iter()
            .filter(|r| r.ttft_violated || r.tpot_violated)
            .count();
        assert!(violated > 50, "storm should violate many SLOs: {violated}");
        // But nothing is lost: every request still completes eventually.
        assert_eq!(m.dropped, 0);
        assert!(m.records.iter().all(|r| r.completed.is_some()));
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = small_trace(20);
        let a = sim().run(&trace);
        let b = sim().run(&trace);
        assert_eq!(a.slo_met(), b.slo_met());
        let ta: Vec<_> = a.records.iter().map(|r| r.first_token).collect();
        let tb: Vec<_> = b.records.iter().map(|r| r.first_token).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::new(vec![], 1, SimDuration::from_secs(1));
        let m = sim().run(&trace);
        assert_eq!(m.total(), 0);
        assert_eq!(m.slo_rate(), 1.0);
    }

    #[test]
    fn keepalive_reclaims_idle_instance() {
        let trace = small_trace(1);
        let mut s = sim();
        s.world.cfg.keep_alive = SimDuration::from_secs(1);
        let m = s.run(&trace);
        // After completion + keep-alive, the instance unloads; its lifetime
        // was accounted.
        assert!(m.instance_lifetime_s > 0.0);
    }
}
