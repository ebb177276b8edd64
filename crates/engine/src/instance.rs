//! A serving instance: one model resident on one node slot.
//!
//! Holds the continuous batch and the paged KV pool, exposes iteration
//! begin/finish transitions, and keeps the accounting (busy seconds, token
//! counters, peak batch) the metrics layer reads. The instance never picks
//! *when* to run — the policy does (token-level scheduling is SLINFER's
//! §VI-A contribution; baselines run instances back-to-back).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, RequestId, SessionTag, Slo};

use crate::blocks::BlockPool;
use crate::request::{ReqPhase, RunningRequest};

use hwmodel::ModelSpec;

/// Identifies one instance across the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct InstanceId(pub u64);

/// Lifecycle of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Weights are being loaded (cold start).
    Loading,
    /// Serving.
    Active,
}

/// What one iteration computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IterationKind {
    /// Prefill of one waiting request.
    Prefill(RequestId),
    /// One decode step over the whole continuous batch.
    Decode,
}

/// Result of starting a prefill iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillStart {
    /// Tokens the prefill actually computes (cached prefix excluded; at
    /// least 1 so every prefill produces a first token).
    pub compute_tokens: u32,
    /// Prefix tokens served from this session's cached KV.
    pub cached_tokens: u32,
}

/// KV blocks parked for a finished session turn, awaiting the next turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionEntry {
    /// Context tokens whose KV is cached (prompt + produced tokens).
    pub tokens: u32,
    /// Blocks held in the pool (0 for an entry migrated in from another
    /// instance: its blocks are allocated at the next prefill).
    pub blocks: u64,
    /// LRU stamp (monotonic per instance; smallest = coldest).
    last_used: u64,
}

/// Result of finishing a decode iteration.
#[derive(Debug, Clone, Default)]
pub struct DecodeOutcome {
    /// `(request, tokens_out, finished)` per sequence that produced a token.
    pub produced: Vec<(RequestId, u32, bool)>,
    /// Requests whose next token could not get a KV block (underestimation
    /// hazard, §VII-D); they did not advance.
    pub alloc_failures: Vec<RequestId>,
    /// Requests that completed and were removed.
    pub finished: Vec<RunningRequest>,
}

/// One model instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// Unique id.
    pub id: InstanceId,
    /// The hosted model.
    pub model: ModelId,
    /// Model shape/precision (sizing, performance).
    pub spec: ModelSpec,
    /// Tensor-parallel degree: how many node slots this instance spans
    /// (mirrors `spec.tp_degree`; 1 for plain single-slot instances). The
    /// cluster layer claims the matching slot group at placement time.
    pub tp: u32,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Live requests in all phases (finished ones are removed).
    requests: Vec<RunningRequest>,
    pool: BlockPool,
    /// Retain finished session turns' KV for prefix reuse. Set by the
    /// cluster layer from its session config; off (the default) keeps the
    /// historical free-on-finish behavior bit-for-bit.
    pub retain_sessions: bool,
    /// Parked per-session KV awaiting the session's next turn.
    session_kv: BTreeMap<u64, SessionEntry>,
    /// Monotonic stamp source for deterministic session LRU.
    session_seq: u64,
    /// Prefix tokens served from the local session cache.
    pub prefix_hit_tokens: u64,
    /// Session entries dropped under capacity pressure.
    pub session_evictions: u64,
    /// True while an iteration executes.
    pub busy: bool,
    /// True while a KV rescale executes (iterations are blocked, §VII-B).
    pub scaling: bool,
    /// Creation time (cold-start begin).
    pub created_at: SimTime,
    /// When the instance last became empty, for keep-alive reclaim.
    pub idle_since: Option<SimTime>,
    /// Total decode tokens produced (throughput accounting).
    pub decode_tokens: u64,
    /// Total prefill tokens processed.
    pub prefill_tokens: u64,
    /// Seconds spent computing iterations.
    pub busy_secs: f64,
    /// Seconds spent blocked on KV rescales.
    pub scale_secs: f64,
    /// Number of KV rescale operations performed.
    pub scale_ops: u64,
    /// Largest decode batch observed.
    pub peak_batch: u32,
}

impl Instance {
    /// Creates an instance in the [`InstanceState::Loading`] state with an
    /// initial KV grant of `kv_grant_bytes`.
    pub fn new(
        id: InstanceId,
        model: ModelId,
        spec: ModelSpec,
        kv_grant_bytes: u64,
        now: SimTime,
    ) -> Self {
        let pool = BlockPool::new(spec.kv_bytes_per_token(), kv_grant_bytes);
        let tp = spec.tp_degree.max(1);
        Instance {
            id,
            model,
            spec,
            tp,
            state: InstanceState::Loading,
            requests: Vec::new(),
            pool,
            retain_sessions: false,
            session_kv: BTreeMap::new(),
            session_seq: 0,
            prefix_hit_tokens: 0,
            session_evictions: 0,
            busy: false,
            scaling: false,
            created_at: now,
            idle_since: None,
            decode_tokens: 0,
            prefill_tokens: 0,
            busy_secs: 0.0,
            scale_secs: 0.0,
            scale_ops: 0,
            peak_batch: 0,
        }
    }

    /// Marks the cold start complete.
    pub fn activate(&mut self, now: SimTime) {
        self.state = InstanceState::Active;
        if self.requests.is_empty() {
            self.idle_since = Some(now);
        }
    }

    /// Admits a request (phase becomes `Waiting`).
    pub fn admit(&mut self, rr: RunningRequest) {
        debug_assert!(matches!(rr.phase, ReqPhase::Waiting));
        self.requests.push(rr);
        self.idle_since = None;
    }

    /// All live requests.
    pub fn requests(&self) -> &[RunningRequest] {
        &self.requests
    }

    /// Mutable access for policies that adjust grace windows.
    pub fn requests_mut(&mut self) -> &mut [RunningRequest] {
        &mut self.requests
    }

    /// Number of decoding sequences (the paper's "bs").
    pub fn batch_size(&self) -> u32 {
        self.requests
            .iter()
            .filter(|r| matches!(r.phase, ReqPhase::Decoding))
            .count() as u32
    }

    /// Number of admitted-but-not-prefilled requests.
    pub fn waiting_count(&self) -> u32 {
        self.requests
            .iter()
            .filter(|r| matches!(r.phase, ReqPhase::Waiting))
            .count() as u32
    }

    /// Total live requests (waiting + prefilling + decoding).
    pub fn live_count(&self) -> u32 {
        self.requests.len() as u32
    }

    /// Total context tokens across the decode batch.
    pub fn batch_context_tokens(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| matches!(r.phase, ReqPhase::Decoding))
            .map(|r| r.context_tokens() as u64)
            .sum()
    }

    /// True if an iteration could be scheduled right now.
    pub fn has_work(&self) -> bool {
        self.state == InstanceState::Active
            && !self.busy
            && !self.scaling
            && self.requests.iter().any(|r| {
                matches!(r.phase, ReqPhase::Waiting) || matches!(r.phase, ReqPhase::Decoding)
            })
    }

    /// True if any live request exists (even mid-iteration).
    pub fn has_live_requests(&self) -> bool {
        !self.requests.is_empty()
    }

    /// True when the instance holds no live request and is neither
    /// mid-iteration nor mid-rescale: keep-alive may reclaim it.
    pub fn is_idle(&self) -> bool {
        !self.has_live_requests() && !self.busy && !self.scaling
    }

    /// The most urgent schedulable work: minimum headroom over waiting
    /// requests (→ prefill) and the decode batch (→ decode), per Fig. 14.
    pub fn most_urgent(&self, now: SimTime, slo: &Slo) -> Option<(f64, IterationKind)> {
        let mut best: Option<(f64, IterationKind)> = None;
        for r in &self.requests {
            let candidate = match r.phase {
                ReqPhase::Waiting => (r.headroom(now, slo), IterationKind::Prefill(r.req.id)),
                ReqPhase::Decoding => (r.headroom(now, slo), IterationKind::Decode),
                _ => continue,
            };
            if best.is_none_or(|(h, _)| candidate.0 < h) {
                best = Some(candidate);
            }
        }
        best
    }

    fn find(&self, id: RequestId) -> Option<usize> {
        self.requests.iter().position(|r| r.req.id == id)
    }

    /// Begins a prefill iteration for `id`, allocating its context blocks.
    ///
    /// If the instance holds parked KV for the request's session (a
    /// follow-up turn landing back home), the cached prefix is consumed:
    /// its blocks transfer to the request, only the uncached tail is
    /// computed, and [`PrefillStart::cached_tokens`] reports the skip.
    ///
    /// Returns `None` if the KV grant cannot hold the prompt even after
    /// evicting idle sessions' parked blocks (caller must scale up or
    /// reroute); a consumed session entry is dropped in that case (its
    /// blocks are freed) so a retry sees maximal free space.
    ///
    /// # Panics
    /// Panics if the instance is busy/scaling/loading or `id` is unknown or
    /// not waiting.
    pub fn begin_prefill(&mut self, id: RequestId) -> Option<PrefillStart> {
        assert!(self.state == InstanceState::Active, "instance not active");
        assert!(!self.busy && !self.scaling, "instance already occupied");
        let ix = self.find(id).expect("unknown request");
        assert!(
            matches!(self.requests[ix].phase, ReqPhase::Waiting),
            "request not waiting"
        );
        let len = self.requests[ix].prefill_len();
        let tag = self.requests[ix].req.session;
        let entry = if self.retain_sessions && tag.is_followup() {
            self.session_kv.remove(&tag.id)
        } else {
            None
        };
        // A cached prefix never covers the whole prompt: at least one new
        // token must be computed to produce the first output token.
        let (cached, reuse_blocks) = entry
            .map(|e| (e.tokens.min(len - 1), e.blocks))
            .unwrap_or((0, 0));
        // Blocks for the full context plus the first output token; the
        // parked blocks count toward it.
        let blocks = self.pool.blocks_for_tokens(len + 1);
        let extra = blocks.saturating_sub(reuse_blocks);
        if !self.alloc_evicting_sessions(extra) {
            // Even the delta does not fit: drop the consumed entry so the
            // caller's recovery (rescale, shed, reroute) starts clean.
            self.pool.free(reuse_blocks);
            if reuse_blocks > 0 {
                self.session_evictions += 1;
            }
            return None;
        }
        // Shrinking contexts cannot happen (context only grows), but guard
        // against a parked entry larger than the new request needs.
        if reuse_blocks > blocks {
            self.pool.free(reuse_blocks - blocks);
        }
        let r = &mut self.requests[ix];
        r.kv_blocks = blocks;
        r.phase = ReqPhase::Prefilling;
        self.busy = true;
        self.prefix_hit_tokens += cached as u64;
        Some(PrefillStart {
            compute_tokens: (len - cached).max(1),
            cached_tokens: cached,
        })
    }

    /// Completes the in-flight prefill: the request joins the decode batch
    /// and its first output token is produced. Returns
    /// `(tokens_out, finished)` — `finished` is `Some` when the first token
    /// was also the last (`output_len == 1` or a migrated tail).
    ///
    /// # Panics
    /// Panics if `id` is not the in-flight prefill.
    pub fn finish_prefill(
        &mut self,
        id: RequestId,
        now: SimTime,
        elapsed: SimDuration,
    ) -> (u32, Option<RunningRequest>) {
        let ix = self.find(id).expect("unknown request");
        assert!(
            matches!(self.requests[ix].phase, ReqPhase::Prefilling),
            "request not prefilling"
        );
        let prefill_len;
        let tokens_out;
        let done;
        {
            let r = &mut self.requests[ix];
            prefill_len = r.prefill_len() as u64;
            r.tokens_out += 1;
            tokens_out = r.tokens_out;
            if r.first_token_at.is_none() {
                r.first_token_at = Some(now);
            }
            done = r.is_finished();
            r.phase = if done {
                ReqPhase::Finished
            } else {
                ReqPhase::Decoding
            };
        }
        self.prefill_tokens += prefill_len;
        self.decode_tokens += 1;
        self.busy = false;
        self.busy_secs += elapsed.as_secs_f64();
        self.peak_batch = self.peak_batch.max(self.batch_size());
        let mut finished = Vec::new();
        self.collect_finished(&mut finished);
        let finished = finished.pop();
        self.retire_finished(now);
        (tokens_out, finished)
    }

    /// Begins a decode iteration over the current batch; returns
    /// `(batch_size, total_context_tokens)`.
    ///
    /// # Panics
    /// Panics if the instance is occupied or the batch is empty.
    pub fn begin_decode(&mut self) -> (u32, u64) {
        assert!(self.state == InstanceState::Active, "instance not active");
        assert!(!self.busy && !self.scaling, "instance already occupied");
        let bs = self.batch_size();
        assert!(bs > 0, "decode with empty batch");
        self.busy = true;
        (bs, self.batch_context_tokens())
    }

    /// Completes the in-flight decode iteration: every decoding sequence
    /// gains one token (if a KV block is available), finished sequences
    /// retire. Allocates a fresh outcome; the event loop reuses one buffer
    /// through [`Instance::finish_decode_into`].
    pub fn finish_decode(&mut self, now: SimTime, elapsed: SimDuration) -> DecodeOutcome {
        let mut outcome = DecodeOutcome::default();
        self.finish_decode_into(now, elapsed, &mut outcome);
        outcome
    }

    /// [`Instance::finish_decode`] into a caller-owned buffer: `outcome` is
    /// cleared first, then filled exactly as `finish_decode` would return
    /// it. Reusing one buffer keeps the per-iteration path free of heap
    /// allocation once its vectors have grown to the largest batch seen.
    ///
    /// # Panics
    /// Panics if no decode is in flight.
    pub fn finish_decode_into(
        &mut self,
        now: SimTime,
        elapsed: SimDuration,
        outcome: &mut DecodeOutcome,
    ) {
        assert!(self.busy, "no decode in flight");
        outcome.produced.clear();
        outcome.alloc_failures.clear();
        outcome.finished.clear();
        self.busy = false;
        self.busy_secs += elapsed.as_secs_f64();
        for ix in 0..self.requests.len() {
            if !matches!(self.requests[ix].phase, ReqPhase::Decoding) {
                continue;
            }
            let needed = self
                .pool
                .blocks_for_tokens(self.requests[ix].context_tokens() + 1);
            if needed > self.requests[ix].kv_blocks {
                let extra = needed - self.requests[ix].kv_blocks;
                if !self.alloc_evicting_sessions(extra) {
                    outcome.alloc_failures.push(self.requests[ix].req.id);
                    continue;
                }
                self.requests[ix].kv_blocks = needed;
            }
            let r = &mut self.requests[ix];
            r.tokens_out += 1;
            self.decode_tokens += 1;
            if r.first_token_at.is_none() {
                r.first_token_at = Some(now);
            }
            let done = r.is_finished();
            if done {
                r.phase = ReqPhase::Finished;
            }
            outcome.produced.push((r.req.id, r.tokens_out, done));
        }
        self.collect_finished(&mut outcome.finished);
        self.retire_finished(now);
    }

    /// Moves finished requests out of the live set, appending them to `out`.
    fn collect_finished(&mut self, out: &mut Vec<RunningRequest>) {
        let mut i = 0;
        while i < self.requests.len() {
            if matches!(self.requests[i].phase, ReqPhase::Finished) {
                let r = self.requests.swap_remove(i);
                let tag = r.req.session;
                if self.retain_sessions && tag.is_session() {
                    // Park the finished turn's KV for the session's next
                    // turn instead of freeing it.
                    self.session_seq += 1;
                    let entry = SessionEntry {
                        tokens: r.context_tokens(),
                        blocks: r.kv_blocks,
                        last_used: self.session_seq,
                    };
                    if let Some(old) = self.session_kv.insert(tag.id, entry) {
                        self.pool.free(old.blocks);
                    }
                } else {
                    self.pool.free(r.kv_blocks);
                }
                out.push(r);
            } else {
                i += 1;
            }
        }
    }

    /// Allocates `blocks`, evicting parked session KV coldest-first when the
    /// pool is short. Sessionless instances never hold parked entries, so
    /// this reduces to a plain `try_alloc`.
    fn alloc_evicting_sessions(&mut self, blocks: u64) -> bool {
        if self.pool.try_alloc(blocks) {
            return true;
        }
        while let Some(sid) = self.coldest_session() {
            let e = self.session_kv.remove(&sid).expect("coldest key exists");
            self.pool.free(e.blocks);
            self.session_evictions += 1;
            if self.pool.try_alloc(blocks) {
                return true;
            }
        }
        false
    }

    fn coldest_session(&self) -> Option<u64> {
        self.session_kv
            .iter()
            .min_by_key(|(id, e)| (e.last_used, **id))
            .map(|(id, _)| *id)
    }

    /// True if this instance holds parked KV for `session`.
    pub fn has_session(&self, session: u64) -> bool {
        self.session_kv.contains_key(&session)
    }

    /// Cached context tokens parked for `session`, if any.
    pub fn session_tokens(&self, session: u64) -> Option<u32> {
        self.session_kv.get(&session).map(|e| e.tokens)
    }

    /// Number of sessions with parked KV.
    pub fn session_count(&self) -> usize {
        self.session_kv.len()
    }

    /// Ids of all sessions with parked KV here (ascending).
    pub fn session_ids(&self) -> Vec<u64> {
        self.session_kv.keys().copied().collect()
    }

    /// Bytes held by parked session KV.
    pub fn session_kv_bytes(&self) -> u64 {
        let blocks: u64 = self.session_kv.values().map(|e| e.blocks).sum();
        blocks * self.pool.block_bytes()
    }

    /// Removes and frees `session`'s parked KV, returning its cached token
    /// count (used by the cluster layer when migrating a session away).
    pub fn evict_session(&mut self, session: u64) -> Option<u32> {
        let e = self.session_kv.remove(&session)?;
        self.pool.free(e.blocks);
        Some(e.tokens)
    }

    /// Records `tokens` of session KV arriving from another instance. No
    /// blocks are held yet — they are allocated when the turn prefills here.
    pub fn import_session(&mut self, session: u64, tokens: u32) {
        self.session_seq += 1;
        let entry = SessionEntry {
            tokens,
            blocks: 0,
            last_used: self.session_seq,
        };
        if let Some(old) = self.session_kv.insert(session, entry) {
            self.pool.free(old.blocks);
        }
    }

    /// Frees parked session KV (coldest-first) until live blocks fit under
    /// `target_bytes`; returns the number of sessions evicted. Used before
    /// shrinking the KV grant.
    pub fn evict_sessions_to_fit(&mut self, target_bytes: u64) -> u64 {
        let mut n = 0;
        while self.pool.used_bytes() > target_bytes {
            let Some(sid) = self.coldest_session() else {
                break;
            };
            let e = self.session_kv.remove(&sid).expect("coldest key exists");
            self.pool.free(e.blocks);
            self.session_evictions += 1;
            n += 1;
        }
        n
    }

    /// The session tag of a queued (admitted) request, if it is live here.
    pub fn queued_session(&self, id: RequestId) -> Option<SessionTag> {
        self.find(id).map(|ix| self.requests[ix].req.session)
    }

    fn retire_finished(&mut self, now: SimTime) {
        if self.requests.is_empty() {
            self.idle_since = Some(now);
        }
    }

    /// Removes a live request for migration/eviction, freeing its KV and
    /// resetting it to `Waiting` with migration bookkeeping.
    ///
    /// # Panics
    /// Panics if `id` is unknown or is currently mid-iteration.
    pub fn remove_for_migration(&mut self, id: RequestId, now: SimTime) -> RunningRequest {
        let ix = self.find(id).expect("unknown request");
        assert!(
            !matches!(self.requests[ix].phase, ReqPhase::Prefilling),
            "cannot migrate a request mid-prefill"
        );
        let mut r = self.requests.swap_remove(ix);
        self.pool.free(r.kv_blocks);
        r.begin_migration();
        self.retire_finished(now);
        r
    }

    /// Removes a *decoding* request for prefill–decode disaggregated
    /// handoff (§IX-G): its KV blocks are freed here but the request keeps
    /// its decoding phase — the cache content is shipped over the network to
    /// the decode instance rather than recomputed.
    ///
    /// # Panics
    /// Panics if `id` is unknown or not decoding.
    pub fn remove_for_handoff(&mut self, id: RequestId, now: SimTime) -> RunningRequest {
        let ix = self.find(id).expect("unknown request");
        assert!(
            matches!(self.requests[ix].phase, ReqPhase::Decoding),
            "handoff requires a decoding request"
        );
        let mut r = self.requests.swap_remove(ix);
        self.pool.free(r.kv_blocks);
        r.kv_blocks = 0;
        self.retire_finished(now);
        r
    }

    /// Admits a request that already completed prefill elsewhere (PD
    /// disaggregation): allocates blocks for its shipped KV and joins the
    /// decode batch directly. Returns false if the grant cannot hold it.
    #[must_use]
    pub fn admit_decoding(&mut self, mut rr: RunningRequest) -> bool {
        debug_assert!(matches!(rr.phase, ReqPhase::Decoding));
        let blocks = self.pool.blocks_for_tokens(rr.context_tokens() + 1);
        if !self.alloc_evicting_sessions(blocks) {
            return false;
        }
        rr.kv_blocks = blocks;
        self.requests.push(rr);
        self.idle_since = None;
        true
    }

    /// Drains *all* live requests for preemption (§VIII-A), freeing KV.
    pub fn drain_for_preemption(&mut self, now: SimTime) -> Vec<RunningRequest> {
        let mut out: Vec<RunningRequest> = Vec::with_capacity(self.requests.len());
        for mut r in std::mem::take(&mut self.requests) {
            self.pool.free(r.kv_blocks);
            r.begin_migration();
            out.push(r);
        }
        self.idle_since = Some(now);
        out
    }

    /// Records a completed KV rescale; returns false if the new grant cannot
    /// hold live blocks (the caller must treat this as a hazard).
    #[must_use]
    pub fn apply_kv_resize(&mut self, new_bytes: u64, elapsed: SimDuration) -> bool {
        self.scale_secs += elapsed.as_secs_f64();
        self.scale_ops += 1;
        self.pool.try_resize(new_bytes)
    }

    /// Bytes currently granted to the KV pool.
    pub fn kv_capacity_bytes(&self) -> u64 {
        self.pool.capacity_bytes()
    }

    /// Bytes held by live KV blocks.
    pub fn kv_used_bytes(&self) -> u64 {
        self.pool.used_bytes()
    }

    /// KV pool utilization in `[0, 1]`.
    pub fn kv_utilization(&self) -> f64 {
        self.pool.utilization()
    }

    /// Total memory footprint committed on the node: weights + KV grant.
    pub fn footprint_bytes(&self) -> u64 {
        self.spec.weights_bytes() + self.pool.capacity_bytes()
    }

    /// Eq. 2 — the memory the instance *requires*:
    /// `C · max(Σ_r (I_r + max(O_r, Ō)), L_min)`, where `Ō` is the
    /// historical mean output length and `L_min` a floor in tokens
    /// (the paper uses the model's maximum context length).
    pub fn kv_required_bytes(&self, avg_output_len: f64, l_min_tokens: u32) -> u64 {
        let sum: f64 = self
            .requests
            .iter()
            .filter(|r| !matches!(r.phase, ReqPhase::Finished))
            .map(|r| r.req.input_len as f64 + (r.tokens_out as f64).max(avg_output_len))
            .sum();
        let tokens = sum.max(l_min_tokens as f64);
        (tokens * self.spec.kv_bytes_per_token() as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::request::{Request, SloClass};

    fn spec() -> ModelSpec {
        ModelSpec::llama2_7b()
    }

    fn inst(kv_gb: u64) -> Instance {
        let mut i = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec(),
            kv_gb * 1_000_000_000,
            SimTime::ZERO,
        );
        i.activate(SimTime::ZERO);
        i
    }

    fn rr(id: u64, input: u32, output: u32) -> RunningRequest {
        RunningRequest::new(Request {
            id: RequestId(id),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: input,
            output_len: output,
            class: SloClass::default(),
            session: Default::default(),
        })
    }

    #[test]
    fn full_request_lifecycle() {
        let mut i = inst(8);
        i.admit(rr(1, 100, 3));
        assert_eq!(i.waiting_count(), 1);
        assert!(i.has_work());

        let ps = i.begin_prefill(RequestId(1)).expect("kv fits");
        assert_eq!(ps.compute_tokens, 100);
        assert_eq!(ps.cached_tokens, 0);
        assert!(i.busy);
        i.finish_prefill(
            RequestId(1),
            SimTime::from_millis(500),
            SimDuration::from_millis(500),
        );
        assert_eq!(i.batch_size(), 1);
        assert_eq!(i.decode_tokens, 1, "prefill produces the first token");

        // Two more decode iterations finish the request (output_len = 3).
        for step in 0..2 {
            let (bs, ctx) = i.begin_decode();
            assert_eq!(bs, 1);
            assert!(ctx >= 100);
            let out = i.finish_decode(
                SimTime::from_millis(600 + step * 100),
                SimDuration::from_millis(100),
            );
            assert_eq!(out.produced.len(), 1);
        }
        assert_eq!(i.live_count(), 0);
        assert!(i.idle_since.is_some());
        assert_eq!(i.kv_used_bytes(), 0, "finished request frees its KV");
    }

    #[test]
    fn prefill_rejected_when_grant_too_small() {
        // 0.1 GB grant cannot hold a 1024-token 7B prompt (0.5 GB).
        let mut i = Instance::new(
            InstanceId(2),
            ModelId(0),
            spec(),
            100_000_000,
            SimTime::ZERO,
        );
        i.activate(SimTime::ZERO);
        i.admit(rr(1, 1024, 4));
        assert!(i.begin_prefill(RequestId(1)).is_none());
        assert!(!i.busy, "failed prefill must not occupy the instance");
        assert_eq!(i.kv_used_bytes(), 0);
    }

    #[test]
    fn decode_alloc_failure_blocks_token() {
        // Grant exactly the prompt's blocks so the next boundary crossing
        // fails: prompt 15 tokens + 1 = 16 → 1 block; token 17 needs block 2.
        let spec7 = spec();
        let one_block = spec7.kv_bytes_per_token() * 16;
        let mut i = Instance::new(InstanceId(3), ModelId(0), spec7, one_block, SimTime::ZERO);
        i.activate(SimTime::ZERO);
        i.admit(rr(1, 15, 10));
        assert!(i.begin_prefill(RequestId(1)).is_some());
        i.finish_prefill(RequestId(1), SimTime::ZERO, SimDuration::ZERO);
        // context now 16; next token needs a second block that doesn't exist.
        i.begin_decode();
        let out = i.finish_decode(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(out.alloc_failures, vec![RequestId(1)]);
        assert!(out.produced.is_empty());
        // The request did not advance.
        assert_eq!(i.requests()[0].tokens_out, 1);
    }

    #[test]
    fn most_urgent_prefers_lowest_headroom() {
        let slo = Slo::paper();
        let mut i = inst(8);
        // Waiting request with a long-input (large TTFT budget)…
        i.admit(rr(1, 4096, 4));
        // …and a decoding request about to hit its deadline.
        i.admit(rr(2, 100, 4));
        assert!(i.begin_prefill(RequestId(2)).is_some());
        i.finish_prefill(
            RequestId(2),
            SimTime::from_millis(100),
            SimDuration::from_millis(100),
        );
        // At t close to req-2's next deadline, decode must win.
        let now = SimTime::from_millis(700);
        let (_, kind) = i.most_urgent(now, &slo).unwrap();
        assert_eq!(kind, IterationKind::Decode);
    }

    #[test]
    fn migration_frees_kv_and_resets() {
        let mut i = inst(8);
        i.admit(rr(1, 100, 50));
        assert!(i.begin_prefill(RequestId(1)).is_some());
        i.finish_prefill(RequestId(1), SimTime::ZERO, SimDuration::ZERO);
        let used = i.kv_used_bytes();
        assert!(used > 0);
        let r = i.remove_for_migration(RequestId(1), SimTime::from_secs(1));
        assert_eq!(i.kv_used_bytes(), 0);
        assert_eq!(r.migrations, 1);
        assert_eq!(i.live_count(), 0);
    }

    #[test]
    fn drain_for_preemption_empties_instance() {
        let mut i = inst(8);
        i.admit(rr(1, 100, 50));
        i.admit(rr(2, 100, 50));
        assert!(i.begin_prefill(RequestId(1)).is_some());
        i.finish_prefill(RequestId(1), SimTime::ZERO, SimDuration::ZERO);
        let drained = i.drain_for_preemption(SimTime::from_secs(1));
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|r| matches!(r.phase, ReqPhase::Waiting)));
        assert_eq!(i.kv_used_bytes(), 0);
        assert!(i.idle_since.is_some());
    }

    #[test]
    fn kv_required_follows_equation_two() {
        let mut i = inst(8);
        let c = i.spec.kv_bytes_per_token() as f64;
        // No requests: floor applies (L_min = 4096 tokens).
        assert_eq!(i.kv_required_bytes(200.0, 4096), (4096.0 * c) as u64);
        // Two requests: Σ (I_r + max(O_r, Ō)) = (1000+200) + (3000+200).
        i.admit(rr(1, 1000, 64));
        i.admit(rr(2, 3000, 64));
        let expect = ((1000.0 + 200.0 + 3000.0 + 200.0) * c).ceil() as u64;
        assert_eq!(i.kv_required_bytes(200.0, 4096), expect);
    }

    #[test]
    fn resize_tracks_overhead() {
        let mut i = inst(8);
        assert!(i.apply_kv_resize(16_000_000_000, SimDuration::from_millis(300)));
        assert_eq!(i.kv_capacity_bytes(), 16_000_000_000);
        assert_eq!(i.scale_ops, 1);
        assert!((i.scale_secs - 0.3).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn cannot_overlap_iterations() {
        let mut i = inst(8);
        i.admit(rr(1, 100, 4));
        i.admit(rr(2, 100, 4));
        assert!(i.begin_prefill(RequestId(1)).is_some());
        let _ = i.begin_prefill(RequestId(2));
    }

    #[test]
    fn footprint_includes_weights_and_grant() {
        let i = inst(8);
        let expect = i.spec.weights_bytes() + 8 * 1_000_000_000;
        assert_eq!(i.footprint_bytes(), expect);
    }

    fn session_rr(id: u64, sid: u64, turn: u32, input: u32, output: u32) -> RunningRequest {
        let mut r = rr(id, input, output);
        r.req.session = SessionTag::new(sid, turn);
        r
    }

    fn run_to_completion(i: &mut Instance, id: RequestId) {
        assert!(i.begin_prefill(id).is_some());
        i.finish_prefill(id, SimTime::ZERO, SimDuration::ZERO);
        while i.requests().iter().any(|r| r.req.id == id) {
            i.begin_decode();
            i.finish_decode(SimTime::ZERO, SimDuration::ZERO);
        }
    }

    #[test]
    fn session_kv_parks_on_finish_and_discounts_next_turn() {
        let mut i = inst(8);
        i.retain_sessions = true;
        // Turn 0: 100 prompt + 3 output tokens → 103 cached tokens.
        i.admit(session_rr(1, 7, 0, 100, 3));
        run_to_completion(&mut i, RequestId(1));
        assert!(i.has_session(7));
        assert_eq!(i.session_tokens(7), Some(103));
        assert!(i.kv_used_bytes() > 0, "parked KV stays allocated");

        // Turn 1 re-submits the 103-token prefix plus 50 new tokens.
        i.admit(session_rr(2, 7, 1, 153, 4));
        let ps = i.begin_prefill(RequestId(2)).expect("kv fits");
        assert_eq!(ps.cached_tokens, 103);
        assert_eq!(ps.compute_tokens, 50);
        assert!(!i.has_session(7), "the entry is consumed by the turn");
        assert_eq!(i.prefix_hit_tokens, 103);
    }

    #[test]
    fn sessionless_instance_behaves_as_before() {
        let mut i = inst(8);
        // retain_sessions defaults to false: even tagged requests free KV.
        i.admit(session_rr(1, 7, 0, 100, 3));
        run_to_completion(&mut i, RequestId(1));
        assert!(!i.has_session(7));
        assert_eq!(i.kv_used_bytes(), 0);
        i.admit(session_rr(2, 7, 1, 153, 4));
        let ps = i.begin_prefill(RequestId(2)).expect("kv fits");
        assert_eq!(ps.cached_tokens, 0);
        assert_eq!(ps.compute_tokens, 153);
    }

    #[test]
    fn capacity_pressure_evicts_coldest_session() {
        // Pool of 8 blocks; two parked sessions of 2 blocks each leave 4.
        let spec7 = spec();
        let grant = spec7.kv_bytes_per_token() * 16 * 8;
        let mut i = Instance::new(InstanceId(5), ModelId(0), spec7, grant, SimTime::ZERO);
        i.activate(SimTime::ZERO);
        i.retain_sessions = true;
        i.admit(session_rr(1, 1, 0, 20, 2)); // 22 tokens → 2 blocks
        run_to_completion(&mut i, RequestId(1));
        i.admit(session_rr(2, 2, 0, 20, 2));
        run_to_completion(&mut i, RequestId(2));
        assert_eq!(i.session_count(), 2);

        // A 90-token sessionless prompt needs 6 blocks; only 4 are free, so
        // the coldest parked session (id 1) must be evicted.
        i.admit(rr(3, 90, 2));
        assert!(i.begin_prefill(RequestId(3)).is_some());
        assert!(!i.has_session(1), "coldest session evicted first");
        assert!(i.has_session(2), "warmer session survives");
        assert_eq!(i.session_evictions, 1);
    }

    #[test]
    fn evict_sessions_to_fit_frees_parked_kv() {
        let mut i = inst(8);
        i.retain_sessions = true;
        i.admit(session_rr(1, 3, 0, 100, 3));
        run_to_completion(&mut i, RequestId(1));
        let used = i.kv_used_bytes();
        assert!(used > 0);
        assert_eq!(i.evict_sessions_to_fit(0), 1);
        assert_eq!(i.kv_used_bytes(), 0);
        assert!(!i.has_session(3));
    }

    #[test]
    fn imported_session_discounts_without_blocks() {
        let mut i = inst(8);
        i.retain_sessions = true;
        i.import_session(9, 200);
        assert_eq!(i.session_tokens(9), Some(200));
        assert_eq!(i.kv_used_bytes(), 0, "imported entries hold no blocks yet");
        i.admit(session_rr(1, 9, 1, 260, 4));
        let ps = i.begin_prefill(RequestId(1)).expect("kv fits");
        assert_eq!(ps.cached_tokens, 200);
        assert_eq!(ps.compute_tokens, 60);
    }

    #[test]
    fn evict_session_returns_tokens_and_frees() {
        let mut i = inst(8);
        i.retain_sessions = true;
        i.admit(session_rr(1, 4, 0, 50, 2));
        run_to_completion(&mut i, RequestId(1));
        assert_eq!(i.evict_session(4), Some(52));
        assert_eq!(i.kv_used_bytes(), 0);
        assert_eq!(i.evict_session(4), None);
    }

    #[test]
    fn tp_degree_mirrors_spec() {
        assert_eq!(inst(8).tp, 1);
        let i = Instance::new(
            InstanceId(9),
            ModelId(0),
            spec().with_tp(4),
            1_000_000_000,
            SimTime::ZERO,
        );
        assert_eq!(i.tp, 4);
        // The footprint is the whole group's: weights are sharded across
        // the slots but the node ledger accounts the total.
        assert_eq!(i.footprint_bytes(), i.spec.weights_bytes() + 1_000_000_000);
    }
}
