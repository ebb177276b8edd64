//! The scheduling-policy callback surface.
//!
//! SLINFER and every baseline implement [`Policy`]. The driver invokes the
//! callbacks as events fire; policies act exclusively through the
//! [`World`] API. Policies own their admission queues — the driver never
//! queues requests itself. Each policy holds a
//! [`crate::admission::AdmissionQueue`] and decides where a request goes
//! and when the queue is retried (systems differ precisely there, §III-C);
//! how a request waits, expires, hands off between PD pools and is picked
//! for eviction is shared through [`crate::admission`].

use engine::instance::{Instance, InstanceId};
use engine::request::RunningRequest;
use workload::request::RequestId;

use crate::node::NodeId;
use crate::world::{ClusterEvent, World};

/// A serving system under test.
pub trait Policy {
    /// Display name for experiment tables (e.g. `"sllm+c+s"`).
    fn name(&self) -> &str;

    /// A request has arrived. The policy must eventually admit it to an
    /// instance, queue it, or [`World::drop_request`] it.
    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest);

    /// A slot became free (or received new work while free). The policy may
    /// start at most one iteration on it via [`World::start_iteration`].
    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize);

    /// An instance finished its cold start.
    fn on_load_done(&mut self, _w: &mut World, _inst: InstanceId) {}

    /// A KV rescale completed (scale-downs have now released their memory —
    /// the reservation-station notification point of §VII-C).
    fn on_scale_done(&mut self, _w: &mut World, _inst: InstanceId) {}

    /// A request produced its first token (prefill finished). PD policies
    /// hand the request off to a decode instance here (§IX-G).
    fn on_prefill_done(&mut self, _w: &mut World, _inst: InstanceId, _req: RequestId) {}

    /// A request completed all its output tokens.
    fn on_request_done(&mut self, _w: &mut World, _inst: InstanceId, _rr: &RunningRequest) {}

    /// A decoding request could not obtain a KV block (memory
    /// underestimation, §VII-D). The policy must resolve it (scale up, evict,
    /// or migrate) or the request will stall forever.
    fn on_alloc_failure(&mut self, _w: &mut World, _inst: InstanceId, _req: RequestId) {}

    /// An instance has been idle for the keep-alive threshold. The default
    /// reclaims it.
    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        if w.instance(inst).is_some_and(Instance::is_idle) {
            w.unload_instance(inst);
        }
    }

    /// A timer set via [`World::set_timer`] fired.
    fn on_timer(&mut self, _w: &mut World, _payload: u64) {}

    /// A cluster-lifecycle event was applied (node drain/fail/join).
    /// `displaced` holds the requests evicted from unloaded or lost
    /// instances, already reset for migration (they must re-prefill).
    ///
    /// The default re-offers every displaced request through
    /// [`Policy::on_arrival`], which gives baselines a sane
    /// evict-and-requeue behavior without policy-specific state; policies
    /// with internal placement state (parked scale-ops, per-node budgets)
    /// should override this, clean up, and then re-place.
    fn on_node_event(&mut self, w: &mut World, _ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        for rr in displaced {
            self.on_arrival(w, rr);
        }
    }
}
