//! [`LoadChannels`]: the per-node shared loading channels cold starts run
//! on.
//!
//! A channel is processor-shared: with `k` loads in flight each progresses
//! at `1/k` of its uncontended rate. Every membership change (a load
//! joins, finishes or leaves) settles the survivors' progress and
//! reschedules their `LoadDone` events under a fresh epoch; only the event
//! carrying its channel's current epoch is live, so the ones pushed before
//! go stale. Uncontended loads (or any load while contention is off) run
//! for a fixed duration under epoch 0 and never join a channel.

use std::collections::BTreeMap;

use engine::instance::InstanceId;
use simcore::events::EventQueue;
use simcore::time::{SimDuration, SimTime};

use super::Event;
use crate::node::NodeId;

/// One in-flight cold start on a node's shared loading channel.
#[derive(Debug, Clone)]
pub(super) struct ActiveLoad {
    /// Seconds of work remaining at the load's *uncontended* tier
    /// bandwidth (noise already folded in); the channel divides progress
    /// by the number of concurrent loads.
    pub(super) remaining_s: f64,
    /// The load's original uncontended work, seconds. `remaining_s /
    /// work_s` is the fraction still to transfer — what a mid-flight
    /// reroute re-prices from a new source after its peer died.
    pub(super) work_s: f64,
    /// When the load began (completion reports `now - started`).
    pub(super) started: SimTime,
}

/// One node's channel.
struct Channel {
    loads: BTreeMap<InstanceId, ActiveLoad>,
    /// Last time `loads` progress was settled.
    settled_at: SimTime,
    /// Set on every membership change; live `LoadDone` events carry it.
    epoch: u64,
}

/// Every node's loading channel, indexed by node.
pub(super) struct LoadChannels {
    channels: Vec<Channel>,
    /// World-global epoch counter. Epoch values only ever matter by
    /// equality, but a reroute can move a load *between* channels —
    /// globally unique epochs make a stale event from the old channel
    /// unable to collide with the new channel's current epoch.
    next_epoch: u64,
    /// Whether cold starts share channels at all
    /// ([`crate::checkpoint::CheckpointConfig::contention`], fixed at
    /// construction).
    contention: bool,
}

impl LoadChannels {
    pub(super) fn new(nodes: usize, contention: bool) -> Self {
        let mut c = LoadChannels {
            channels: Vec::new(),
            next_epoch: 0,
            contention,
        };
        for _ in 0..nodes {
            c.add_node();
        }
        c
    }

    /// Opens an empty channel for a node that joined mid-run.
    pub(super) fn add_node(&mut self) {
        self.channels.push(Channel {
            loads: BTreeMap::new(),
            settled_at: SimTime::ZERO,
            epoch: 0,
        });
    }

    /// Loads in flight on `ch`.
    pub(super) fn len(&self, ch: NodeId) -> usize {
        self.channels[ch.0 as usize].loads.len()
    }

    /// How many ways a load joining `ch` now would share it: the loads in
    /// flight plus itself, or 1 when contention is off.
    pub(super) fn share(&self, ch: NodeId) -> u32 {
        if self.contention {
            self.len(ch) as u32 + 1
        } else {
            1
        }
    }

    /// Starts a cold start of `work_s` uncontended seconds that began at
    /// `started`. With contention on and a `channel` given, the load joins
    /// it and the whole channel is rescheduled; otherwise one fixed
    /// epoch-0 `LoadDone` lands after `work_s`.
    pub(super) fn start(
        &mut self,
        inst: InstanceId,
        channel: Option<NodeId>,
        work_s: f64,
        started: SimTime,
        now: SimTime,
        events: &mut EventQueue<Event>,
    ) {
        match channel {
            Some(ch) if self.contention => {
                let ix = ch.0 as usize;
                self.settle(ix, now);
                self.channels[ix].loads.insert(
                    inst,
                    ActiveLoad {
                        remaining_s: work_s,
                        work_s,
                        started,
                    },
                );
                self.reschedule(ix, now, events);
            }
            _ => {
                let finish = now + SimDuration::from_secs_f64(work_s);
                events.push(
                    finish,
                    Event::LoadDone {
                        inst,
                        elapsed: finish.since(started),
                        epoch: 0,
                    },
                );
            }
        }
    }

    /// Takes `inst`'s load (if any) off channel `ch`, speeding the
    /// survivors back up. Returns whether a load was there.
    pub(super) fn leave(
        &mut self,
        inst: InstanceId,
        ch: NodeId,
        now: SimTime,
        events: &mut EventQueue<Event>,
    ) -> bool {
        let ix = ch.0 as usize;
        if !self.channels[ix].loads.contains_key(&inst) {
            return false;
        }
        self.settle(ix, now);
        self.channels[ix].loads.remove(&inst);
        self.reschedule(ix, now, events);
        true
    }

    /// Completes `inst`'s load on `ch` if a `LoadDone` carrying `epoch` is
    /// still live; false for a stale event.
    pub(super) fn finish(
        &mut self,
        inst: InstanceId,
        ch: NodeId,
        epoch: u64,
        now: SimTime,
        events: &mut EventQueue<Event>,
    ) -> bool {
        epoch == self.channels[ch.0 as usize].epoch && self.leave(inst, ch, now, events)
    }

    /// Settled seconds of uncontended work `inst` still has on `ch` at
    /// `now`, read-only; `None` when it has no load there.
    pub(super) fn remaining_s(&self, inst: InstanceId, ch: NodeId, now: SimTime) -> Option<f64> {
        let c = &self.channels[ch.0 as usize];
        let l = c.loads.get(&inst)?;
        let k = c.loads.len() as f64;
        let elapsed = now.since(c.settled_at).as_secs_f64();
        Some((l.remaining_s - elapsed / k).max(0.0))
    }

    /// Empties a failed node's channel, returning its loads settled to
    /// `now` (ascending ids). Their pending `LoadDone` events go stale with
    /// the entries; the epoch is left as is.
    pub(super) fn fail(&mut self, ch: NodeId, now: SimTime) -> BTreeMap<InstanceId, ActiveLoad> {
        let ix = ch.0 as usize;
        self.settle(ix, now);
        std::mem::take(&mut self.channels[ix].loads)
    }

    /// Advances every in-flight load on a channel to `now`: with `k` loads
    /// sharing it, each completes `1/k` units of work per second.
    fn settle(&mut self, ix: usize, now: SimTime) {
        let c = &mut self.channels[ix];
        let k = c.loads.len();
        if k > 0 {
            let elapsed = now.since(c.settled_at).as_secs_f64();
            if elapsed > 0.0 {
                let rate = 1.0 / k as f64;
                for l in c.loads.values_mut() {
                    l.remaining_s = (l.remaining_s - elapsed * rate).max(0.0);
                }
            }
        }
        c.settled_at = now;
    }

    /// Reschedules every in-flight load on a channel after a membership
    /// change: each load's completion lands at `now + remaining · k`,
    /// under a fresh epoch so previously pushed events go stale.
    fn reschedule(&mut self, ix: usize, now: SimTime, events: &mut EventQueue<Event>) {
        self.next_epoch += 1;
        let c = &mut self.channels[ix];
        c.epoch = self.next_epoch;
        let k = c.loads.len() as f64;
        for (&inst, l) in &c.loads {
            let finish = now + SimDuration::from_secs_f64(l.remaining_s * k);
            events.push(
                finish,
                Event::LoadDone {
                    inst,
                    elapsed: finish.since(l.started),
                    epoch: c.epoch,
                },
            );
        }
    }
}
