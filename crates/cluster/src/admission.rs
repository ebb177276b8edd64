//! Request-lifecycle mechanics shared by every policy. Policies own their
//! queues, placement and retry timing; how a request waits, expires,
//! crosses the PD hop and is picked for eviction lives here once:
//!
//! - [`AdmissionQueue`] — "queue it, drop it once its TTFT SLO expires"
//!   (§III-C), with one drop timer per request.
//! - [`Handoff`] — the §IX-G prefill→decode KV hand-off.
//! - [`eviction_victim`] — §VII-D's longest-headroom eviction pick.
//!
//! Timer payloads: a drop timer carries the raw request id, a hand-off
//! timer sets [`TAG_HANDOFF`]. Request ids are trace indexes and never
//! reach the tag bits.

use std::collections::{BTreeMap, BTreeSet};

use engine::instance::InstanceId;
use engine::request::{ReqPhase, RunningRequest};
use simcore::time::SimDuration;
use workload::request::RequestId;

use crate::world::World;

/// Timer-payload tag of a hand-off timer; the low bits hold the request id.
pub const TAG_HANDOFF: u64 = 1 << 63;

/// Wait before a hand-off that found no decode room retries.
const HANDOFF_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// How far past its running deadline a hand-off retries before the
/// request is dropped as hopeless.
const HANDOFF_GIVE_UP: SimDuration = SimDuration::from_secs(10);

/// Requests waiting for placement in push order, with their drop timers.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    entries: Vec<RunningRequest>,
    /// Requests that already have a drop timer armed.
    timers: BTreeSet<RequestId>,
}

impl AdmissionQueue {
    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `rr` has missed its next-token deadline (the TTFT
    /// deadline until its first token).
    pub fn expired(w: &World, rr: &RunningRequest) -> bool {
        w.now() >= rr.next_deadline(&w.slo_for(&rr.req))
    }

    /// Queues `rr`, or drops it if its deadline has passed. Arms at most
    /// one drop timer per request id, at the deadline.
    pub fn push(&mut self, w: &mut World, rr: RunningRequest) {
        let deadline = rr.next_deadline(&w.slo_for(&rr.req));
        if w.now() >= deadline {
            w.drop_request(&rr);
            return;
        }
        if self.timers.insert(rr.req.id) {
            w.set_timer(deadline - w.now(), rr.req.id.0);
        }
        self.entries.push(rr);
    }

    /// The drop timer of `id` fired: disarms it and drops the entry if it
    /// is queued and expired, in place (the rest keeps its order).
    pub fn on_timer(&mut self, w: &mut World, id: RequestId) {
        self.timers.remove(&id);
        if let Some(pos) = self.entries.iter().position(|rr| rr.req.id == id) {
            if Self::expired(w, &self.entries[pos]) {
                let rr = self.entries.remove(pos);
                w.drop_request(&rr);
            }
        }
    }

    /// Empties the queue for a retry pass. Unplaced entries go back via
    /// [`Self::requeue`]; a [`Self::push`] made mid-pass lands among them
    /// in call order.
    pub fn take(&mut self) -> Vec<RunningRequest> {
        std::mem::take(&mut self.entries)
    }

    /// Puts back an entry from [`Self::take`]; its timer is still armed.
    pub fn requeue(&mut self, rr: RunningRequest) {
        self.entries.push(rr);
    }
}

/// Requests in flight between a prefill and a decode instance, by id.
#[derive(Debug, Default)]
pub struct Handoff {
    pending: BTreeMap<u64, RunningRequest>,
}

impl Handoff {
    /// True when `payload` is a hand-off timer.
    pub fn owns(payload: u64) -> bool {
        payload & TAG_HANDOFF != 0
    }

    /// Hands off `req`, which just finished its prefill on `inst`: takes
    /// it off the instance, starts the instance's keep-alive clock, and
    /// arms the timer at which its KV lands.
    ///
    /// # Panics
    /// Panics if `inst` does not exist or `req` is not decoding on it.
    pub fn start(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        let now = w.now();
        let rr = w
            .instance_mut(inst)
            // detlint::allow(D005, "called from on_prefill_done, which the driver fires for the instance that just ran the prefill")
            .expect("prefill instance exists")
            .remove_for_handoff(req, now);
        w.schedule_keepalive(inst);
        let delay = w.kv_transfer_delay(rr.req.model, rr.context_tokens());
        self.pending.insert(req.0, rr);
        w.set_timer(delay, TAG_HANDOFF | req.0);
    }

    /// The request whose KV the timer `payload` marks as landed, if still
    /// pending.
    pub fn landed(&mut self, payload: u64) -> Option<RunningRequest> {
        self.pending.remove(&(payload & !TAG_HANDOFF))
    }

    /// No decode instance took `rr`: retries after a back-off, or drops
    /// it once it is well past its running deadline.
    pub fn retry_or_drop(&mut self, w: &mut World, rr: RunningRequest) {
        if w.now() > rr.next_deadline(&w.slo_for(&rr.req)) + HANDOFF_GIVE_UP {
            w.drop_request(&rr);
        } else {
            let key = rr.req.id.0;
            self.pending.insert(key, rr);
            w.set_timer(HANDOFF_BACKOFF, TAG_HANDOFF | key);
        }
    }
}

/// The request to evict from `inst` when its KV grant cannot grow
/// (§VII-D): the longest headroom among requests not mid-prefill; ties go
/// to the later request (`max_by` keeps the last maximum).
pub fn eviction_victim(w: &World, inst: InstanceId) -> Option<RequestId> {
    let now = w.now();
    w.instance(inst)?
        .requests()
        .iter()
        .filter(|r| !matches!(r.phase, ReqPhase::Prefilling))
        // total_cmp: identical to partial_cmp on the non-NaN headrooms
        // this sees, but can never panic mid-run.
        .max_by(|a, b| {
            a.headroom(now, &w.slo_for(&a.req))
                .total_cmp(&b.headroom(now, &w.slo_for(&b.req)))
        })
        .map(|r| r.req.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::node::{ClusterSpec, NodeId};
    use crate::world::{Event, WorldConfig};
    use hwmodel::{ModelSpec, NoiseModel};
    use simcore::time::SimTime;
    use workload::request::{ModelId, Request, SloClass};

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: 256,
            output_len: 8,
            class: SloClass::default(),
            session: Default::default(),
        }
    }

    /// A one-GPU world that knows requests `0..n`.
    fn world(n: u64) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            ..WorldConfig::default()
        };
        let mut w = World::new(
            &ClusterSpec::heterogeneous(0, 1),
            vec![ModelSpec::llama2_7b()],
            cfg,
        );
        let reqs: Vec<Request> = (0..n).map(req).collect();
        w.metrics = RunMetrics::for_trace(&reqs);
        w
    }

    fn deadline(w: &World, rr: &RunningRequest) -> SimTime {
        rr.next_deadline(&w.slo_for(&rr.req))
    }

    /// Every pending timer as `(fire time, payload)`, in fire order.
    fn timers(w: &mut World) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = w.events.pop() {
            if let Event::Timer(p) = ev {
                out.push((t, p));
            }
        }
        out
    }

    fn ids(q: &mut AdmissionQueue) -> Vec<u64> {
        let taken = q.take();
        let ids = taken.iter().map(|rr| rr.req.id.0).collect();
        for rr in taken {
            q.requeue(rr);
        }
        ids
    }

    #[test]
    fn timer_before_the_deadline_keeps_the_entry_and_at_it_drops() {
        let mut w = world(2);
        let mut q = AdmissionQueue::default();
        let (a, b) = (RunningRequest::new(req(0)), RunningRequest::new(req(1)));
        let due = deadline(&w, &a);
        q.push(&mut w, a);
        q.push(&mut w, b);
        assert_eq!(timers(&mut w), vec![(due, 0), (due, 1)]);

        w.set_now(due.saturating_sub(SimDuration::from_micros(1)));
        q.on_timer(&mut w, RequestId(0));
        assert_eq!(ids(&mut q), vec![0, 1], "an early timer keeps the entry");
        assert_eq!(w.metrics.dropped, 0);

        w.set_now(due);
        q.on_timer(&mut w, RequestId(0));
        assert_eq!(ids(&mut q), vec![1], "the rest keeps its order");
        assert_eq!(w.metrics.dropped, 1);
        assert!(w.metrics.records[0].dropped);
    }

    #[test]
    fn duplicate_push_arms_one_timer() {
        let mut w = world(1);
        let mut q = AdmissionQueue::default();
        let rr = RunningRequest::new(req(0));
        q.push(&mut w, rr.clone());
        let again = q.take().pop().expect("queued");
        q.push(&mut w, again);
        assert_eq!(ids(&mut q), vec![0]);
        assert_eq!(timers(&mut w).len(), 1, "one timer per request id");
        // Once its timer fired, a fresh push arms a new one.
        q.on_timer(&mut w, RequestId(0));
        q.push(&mut w, rr);
        assert_eq!(timers(&mut w).len(), 1);
    }

    #[test]
    fn push_past_the_deadline_drops_without_a_timer() {
        let mut w = world(1);
        let mut q = AdmissionQueue::default();
        let rr = RunningRequest::new(req(0));
        w.set_now(deadline(&w, &rr));
        q.push(&mut w, rr);
        assert!(q.is_empty());
        assert!(timers(&mut w).is_empty());
        assert_eq!(w.metrics.dropped, 1);
    }

    #[test]
    fn push_during_a_retry_pass_interleaves_with_requeues() {
        let mut w = world(4);
        let mut q = AdmissionQueue::default();
        for id in 0..3 {
            q.push(&mut w, RunningRequest::new(req(id)));
        }
        // A pass that keeps 0, places 1, re-queues a preemption victim (3)
        // while handling 1, and keeps 2.
        for rr in q.take() {
            match rr.req.id.0 {
                1 => q.push(&mut w, RunningRequest::new(req(3))),
                _ => q.requeue(rr),
            }
        }
        assert_eq!(ids(&mut q), vec![0, 3, 2]);
    }

    #[test]
    fn handoff_backs_off_and_gives_up_after_deadline_plus_ten_seconds() {
        let mut w = world(1);
        let inst = w
            .create_instance(ModelId(0), NodeId(0), 0, 4_000_000_000)
            .expect("fits");
        w.instance_mut(inst)
            .expect("created")
            .activate(SimTime::ZERO);
        let mut rr = RunningRequest::new(req(0));
        rr.phase = ReqPhase::Decoding;
        rr.tokens_out = 1;
        assert!(w.admit_decoding(inst, rr));
        timers(&mut w);

        let mut h = Handoff::default();
        h.start(&mut w, inst, RequestId(0));
        assert!(w.instance(inst).expect("kept").requests().is_empty());
        let delay = w.kv_transfer_delay(ModelId(0), 257);
        assert_eq!(timers(&mut w), vec![(SimTime::ZERO + delay, TAG_HANDOFF)]);
        assert!(Handoff::owns(TAG_HANDOFF) && !Handoff::owns(0));

        // No decode capacity: retry 100 ms later, up to deadline + 10 s.
        let rr = h.landed(TAG_HANDOFF).expect("pending");
        assert!(h.landed(TAG_HANDOFF).is_none(), "landing consumes it");
        let give_up = deadline(&w, &rr) + SimDuration::from_secs(10);
        w.set_now(give_up);
        h.retry_or_drop(&mut w, rr);
        assert_eq!(
            timers(&mut w),
            vec![(give_up + SimDuration::from_millis(100), TAG_HANDOFF)]
        );
        assert_eq!(w.metrics.dropped, 0);

        let rr = h.landed(TAG_HANDOFF).expect("re-armed");
        w.set_now(give_up + SimDuration::from_micros(1));
        h.retry_or_drop(&mut w, rr);
        assert!(timers(&mut w).is_empty());
        assert!(h.landed(TAG_HANDOFF).is_none());
        assert_eq!(w.metrics.dropped, 1);
    }

    #[test]
    fn victim_is_the_longest_headroom_request() {
        let mut w = world(3);
        let inst = w
            .create_instance(ModelId(0), NodeId(0), 0, 4_000_000_000)
            .expect("fits");
        assert_eq!(eviction_victim(&w, inst), None);
        let mut late = req(2);
        late.arrival = SimTime::from_millis(50);
        for r in [req(0), late, req(1)] {
            w.admit(inst, RunningRequest::new(r));
        }
        assert_eq!(eviction_victim(&w, inst), Some(RequestId(2)));
    }
}
