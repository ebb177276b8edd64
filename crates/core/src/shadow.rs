//! Shadow validation (§VI-C, Fig. 15).
//!
//! Before a request joins an instance, SLINFER *virtually* replays the
//! node's future token-level schedule — using quantified iteration times
//! inflated by the overestimation factor — and admits the request only if no
//! SLO violation appears in any of the three cases:
//!
//! 1. the new request's own prefill finishes past its TTFT deadline;
//! 2. an existing request's token is delayed past its TPOT deadline by the
//!    new prefill;
//! 3. the node's *aggregate* steady-state decode cycle (one decode iteration
//!    of every co-located instance) exceeds the TPOT SLO after admission.
//!
//! The replay runs the same min-headroom loop the real scheduler uses
//! (Fig. 14), so validation and execution can only diverge by estimation
//! error — which the 10% overestimate absorbs.

use std::ops::Range;

use simcore::time::SimTime;
use workload::request::Slo;

use crate::quantify::Quantifier;

/// A request as seen by the validator.
#[derive(Debug, Clone)]
pub struct ShadowReq {
    /// SLO anchor: arrival + cold-start grace.
    pub anchor: SimTime,
    /// The SLO this request's class is held to (per-request, so one view
    /// can mix interactive and relaxed service classes).
    pub slo: Slo,
    /// Prompt length (for the TTFT budget).
    pub input_len: u32,
    /// Tokens already produced.
    pub tokens_done: u32,
    /// Tokens the next prefill must process (prompt, or full context after
    /// a migration).
    pub prefill_len: u32,
    /// True if the request still awaits its prefill.
    pub waiting: bool,
}

/// One co-located instance as seen by the validator.
pub struct InstView<'a> {
    /// The instance's quantifier on this node's hardware.
    pub quant: &'a Quantifier,
    /// Its live requests (plus the candidate, on the target instance).
    pub reqs: Vec<ShadowReq>,
}

/// Outcome of a shadow validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Safe to admit.
    Pass,
    /// Case 1: the candidate's prefill would miss its TTFT deadline.
    CandidateLate,
    /// Case 2: an existing request's token would miss its deadline.
    NeighborLate,
    /// Case 3: the aggregate decode cycle would exceed the TPOT SLO.
    AggregateOverload,
    /// The replay did not converge (treated as a rejection).
    Diverged,
}

impl Verdict {
    /// True when admission is allowed.
    pub fn passed(self) -> bool {
        self == Verdict::Pass
    }
}

/// Replay bound: a schedule that has not settled after this many
/// iterations is rejected as [`Verdict::Diverged`].
const MAX_STEPS: usize = 20_000;

/// Seconds of an integer-microsecond instant, exactly as
/// [`SimTime::as_secs_f64`] computes them.
fn secs(us: u64) -> f64 {
    SimTime::from_micros(us).as_secs_f64()
}

/// A request still awaiting its prefill during the replay. Its deadline
/// cannot move until that prefill runs.
struct Waiting {
    /// Next-token deadline, µs.
    deadline_us: u64,
    /// [`Self::deadline_us`] in seconds.
    deadline_s: f64,
    /// Tokens the prefill processes.
    prefill_len: u32,
    /// Context the request decodes with once prefilled (one token more).
    ctx_after: u64,
    /// Index of its TPOT class in the replay's class list.
    class: usize,
    /// True for the candidate being validated.
    candidate: bool,
    /// Set once its prefill has been replayed.
    done: bool,
}

/// The decoding requests of one view that share a TPOT budget. A decode
/// round moves every member's deadline by the same `tpot_us`, so the
/// class minimum is all the replay needs.
struct TpotClass {
    tpot_us: u64,
    /// Earliest member deadline, µs (`u64::MAX` while the class is empty,
    /// which the saturating shift and `min` both leave correct).
    min_us: u64,
}

/// Replay state of one view.
struct Lane<'q> {
    quant: &'q Quantifier,
    /// Decoding requests (the batch size).
    decoding: u32,
    /// Sum of the decoding requests' contexts (`input_len + tokens_done`).
    ctx_sum: u64,
    /// Earliest decoding deadline, µs and seconds.
    dec_min_us: u64,
    dec_min_s: f64,
    /// This view's slice of the waiting list, and how much of it is left.
    waiting: Range<usize>,
    waiting_left: usize,
    /// This view's slice of the class list.
    classes: Range<usize>,
    /// Ran a decode round after the candidate's prefill.
    proven: bool,
}

impl Lane<'_> {
    fn set_dec_min(&mut self, us: u64) {
        self.dec_min_us = us;
        self.dec_min_s = secs(us);
    }
}

/// Case 3: the node's steady-state aggregate decode cycle, with every
/// waiting request of the target (the candidate included) decoding,
/// against the tightest TPOT among the co-located requests (identical to
/// the run SLO in single-class runs).
fn aggregate_overloaded(views: &[InstView<'_>], target: usize, over: f64) -> bool {
    let mut tpot_bound = f64::INFINITY;
    let mut aggregate = 0.0;
    for (vi, v) in views.iter().enumerate() {
        let (mut bs, mut ctx, mut waiting, mut prefill) = (0u32, 0u64, 0u32, 0u64);
        for r in &v.reqs {
            tpot_bound = tpot_bound.min(r.slo.tpot_s);
            if r.waiting {
                waiting += 1;
                prefill += r.prefill_len as u64;
            } else {
                bs += 1;
                ctx += (r.input_len + r.tokens_done) as u64;
            }
        }
        let mut avg = if bs == 0 { 0 } else { (ctx / bs as u64) as u32 };
        if vi == target && waiting > 0 {
            let wavg = prefill / waiting as u64;
            avg = ((avg as u64 * bs as u64 + wavg * waiting as u64) / (bs + waiting).max(1) as u64)
                as u32;
            bs += waiting;
        }
        if bs > 0 {
            aggregate += v.quant.decode_s(bs, avg.max(1)) * over;
        }
    }
    aggregate > tpot_bound
}

/// Replays the node's future schedule with the candidate inserted into
/// `views[target]` (already included by the caller, flagged by
/// `candidate_ix` within that view's request list).
///
/// `start` is when the node's current iteration (if any) will end;
/// `over` is the §VI-C overestimation factor (≥ 1).
///
/// The replay keeps its own state, so `views` is left as passed (the
/// `&mut` only keeps the signature callers already use). Per
/// step it scans only the waiting requests and one decode item per view:
/// deadlines are integer microseconds, so a request's deadline is
/// computed once and then moves by its TPOT budget per produced token,
/// and the most urgent decoding request of a view is its earliest
/// deadline.
pub fn validate(
    views: &mut [InstView<'_>],
    target: usize,
    candidate_ix: usize,
    start: SimTime,
    over: f64,
) -> Verdict {
    if aggregate_overloaded(views, target, over) {
        return Verdict::AggregateOverload;
    }

    // Cases 1 & 2: event-accurate replay of the min-headroom loop. A
    // candidate arriving with its prefill already done elsewhere (PD
    // handoff) only needs the decode-round checks.
    let mut candidate_prefilled = !views[target].reqs[candidate_ix].waiting;
    let mut lanes = Vec::with_capacity(views.len());
    let mut waiting: Vec<Waiting> = Vec::new();
    let mut classes: Vec<TpotClass> = Vec::new();
    for (vi, v) in views.iter().enumerate() {
        let (w0, c0) = (waiting.len(), classes.len());
        let (mut decoding, mut ctx_sum, mut dec_min_us) = (0u32, 0u64, u64::MAX);
        for (ri, r) in v.reqs.iter().enumerate() {
            let deadline_us = r
                .slo
                .token_deadline(r.anchor, r.input_len, r.tokens_done)
                .as_micros();
            let tpot_us = r.slo.tpot().as_micros();
            let class = match classes[c0..].iter().position(|c| c.tpot_us == tpot_us) {
                Some(k) => c0 + k,
                None => {
                    classes.push(TpotClass {
                        tpot_us,
                        min_us: u64::MAX,
                    });
                    classes.len() - 1
                }
            };
            if r.waiting {
                waiting.push(Waiting {
                    deadline_us,
                    deadline_s: secs(deadline_us),
                    prefill_len: r.prefill_len,
                    ctx_after: (r.input_len + r.tokens_done) as u64 + 1,
                    class,
                    candidate: vi == target && ri == candidate_ix,
                    done: false,
                });
            } else {
                decoding += 1;
                ctx_sum += (r.input_len + r.tokens_done) as u64;
                classes[class].min_us = classes[class].min_us.min(deadline_us);
                dec_min_us = dec_min_us.min(deadline_us);
            }
        }
        lanes.push(Lane {
            quant: v.quant,
            decoding,
            ctx_sum,
            dec_min_us,
            dec_min_s: secs(dec_min_us),
            waiting: w0..waiting.len(),
            waiting_left: waiting.len() - w0,
            classes: c0..classes.len(),
            proven: false,
        });
    }
    let mut total_waiting = waiting.len();

    let mut t = start.as_secs_f64();
    for _ in 0..MAX_STEPS {
        // Pick the most urgent schedulable item across instances, in the
        // order the reference scan visits them: within a view every
        // waiting request in list order, then the view's decode round.
        let mut best: Option<(f64, usize, Option<usize>)> = None; // (headroom, view, Some(waiting)=prefill)
        for (vi, lane) in lanes.iter().enumerate() {
            if lane.waiting_left > 0 {
                for wi in lane.waiting.clone() {
                    let wr = &waiting[wi];
                    if wr.done {
                        continue;
                    }
                    let h = wr.deadline_s - t;
                    if best.is_none_or(|(bh, _, _)| h < bh) {
                        best = Some((h, vi, Some(wi)));
                    }
                }
            }
            if lane.decoding > 0 {
                // Subtraction is monotone, so the earliest deadline yields
                // the view's least headroom bit for bit.
                let h = lane.dec_min_s - t;
                if best.is_none_or(|(bh, _, _)| h < bh) {
                    best = Some((h, vi, None));
                }
            }
        }
        let Some((_, vi, item)) = best else {
            break; // nothing schedulable
        };
        let lane = &mut lanes[vi];
        match item {
            Some(wi) => {
                let wr = &mut waiting[wi];
                t += lane.quant.prefill_s(wr.prefill_len.max(1)) * over;
                if wr.deadline_s < t {
                    return if wr.candidate {
                        Verdict::CandidateLate
                    } else {
                        Verdict::NeighborLate
                    };
                }
                wr.done = true;
                lane.waiting_left -= 1;
                total_waiting -= 1;
                // Its prefill produced the first token: it now decodes.
                let class = &mut classes[wr.class];
                let deadline_us = wr.deadline_us.saturating_add(class.tpot_us);
                class.min_us = class.min_us.min(deadline_us);
                lane.decoding += 1;
                lane.ctx_sum += wr.ctx_after;
                if deadline_us < lane.dec_min_us {
                    lane.set_dec_min(deadline_us);
                }
                if wr.candidate {
                    candidate_prefilled = true;
                }
            }
            None => {
                let bs = lane.decoding;
                let avg = (lane.ctx_sum / bs as u64) as u32;
                t += lane.quant.decode_s(bs, avg.max(1)) * over;
                if lane.dec_min_s < t {
                    return Verdict::NeighborLate;
                }
                // Every decoding request produced one token.
                lane.ctx_sum += bs as u64;
                let mut min_us = u64::MAX;
                for class in &mut classes[lane.classes.clone()] {
                    class.min_us = class.min_us.saturating_add(class.tpot_us);
                    min_us = min_us.min(class.min_us);
                }
                lane.set_dec_min(min_us);
                if candidate_prefilled {
                    lane.proven = true;
                }
            }
        }
        // Stop once the candidate is in and every busy instance has proven
        // one further decode round.
        if candidate_prefilled
            && total_waiting == 0
            && lanes.iter().all(|l| l.proven || l.decoding == 0)
        {
            return Verdict::Pass;
        }
    }
    if candidate_prefilled {
        Verdict::Pass
    } else {
        Verdict::Diverged
    }
}

/// The replay loop as first written: recomputes every deadline and batch
/// on every step and mutates `views` as it goes. Kept as the oracle
/// [`validate`] must match verdict for verdict.
#[cfg(test)]
fn validate_reference(
    views: &mut [InstView<'_>],
    target: usize,
    candidate_ix: usize,
    start: SimTime,
    over: f64,
) -> Verdict {
    fn deadline_s(r: &ShadowReq) -> f64 {
        r.slo
            .token_deadline(r.anchor, r.input_len, r.tokens_done)
            .as_secs_f64()
    }
    fn batch(v: &InstView<'_>) -> (u32, u32) {
        let decoding: Vec<&ShadowReq> = v.reqs.iter().filter(|r| !r.waiting).collect();
        let bs = decoding.len() as u32;
        if bs == 0 {
            return (0, 0);
        }
        let total: u64 = decoding
            .iter()
            .map(|r| (r.input_len + r.tokens_done) as u64)
            .sum();
        (bs, (total / bs as u64) as u32)
    }

    let tpot_bound = views
        .iter()
        .flat_map(|v| v.reqs.iter().map(|r| r.slo.tpot_s))
        .fold(f64::INFINITY, f64::min);
    let mut aggregate = 0.0;
    for (vi, v) in views.iter().enumerate() {
        let (mut bs, mut avg) = batch(v);
        if vi == target {
            let waiting = v.reqs.iter().filter(|r| r.waiting).count() as u32;
            if waiting > 0 {
                let wavg: u64 = v
                    .reqs
                    .iter()
                    .filter(|r| r.waiting)
                    .map(|r| r.prefill_len as u64)
                    .sum::<u64>()
                    / waiting as u64;
                avg = ((avg as u64 * bs as u64 + wavg * waiting as u64)
                    / (bs + waiting).max(1) as u64) as u32;
                bs += waiting;
            }
        }
        if bs > 0 {
            aggregate += v.quant.decode_s(bs, avg.max(1)) * over;
        }
    }
    if aggregate > tpot_bound {
        return Verdict::AggregateOverload;
    }

    let mut t = start.as_secs_f64();
    let mut candidate_prefilled = !views[target].reqs[candidate_ix].waiting;
    let mut post_rounds = vec![0u32; views.len()];
    for _ in 0..MAX_STEPS {
        let mut best: Option<(f64, usize, Option<usize>)> = None;
        for (vi, v) in views.iter().enumerate() {
            let mut decode_urgency: Option<f64> = None;
            for (ri, r) in v.reqs.iter().enumerate() {
                let h = deadline_s(r) - t;
                if r.waiting {
                    if best.is_none_or(|(bh, _, _)| h < bh) {
                        best = Some((h, vi, Some(ri)));
                    }
                } else if decode_urgency.is_none_or(|d| h < d) {
                    decode_urgency = Some(h);
                }
            }
            if let Some(h) = decode_urgency {
                if best.is_none_or(|(bh, _, _)| h < bh) {
                    best = Some((h, vi, None));
                }
            }
        }
        let Some((_, vi, item)) = best else {
            break;
        };
        match item {
            Some(ri) => {
                let len = views[vi].reqs[ri].prefill_len;
                t += views[vi].quant.prefill_s(len.max(1)) * over;
                let is_candidate = vi == target && ri == candidate_ix;
                let r = &mut views[vi].reqs[ri];
                if deadline_s(r) < t {
                    return if is_candidate {
                        Verdict::CandidateLate
                    } else {
                        Verdict::NeighborLate
                    };
                }
                r.waiting = false;
                r.tokens_done += 1;
                if is_candidate {
                    candidate_prefilled = true;
                }
            }
            None => {
                let (bs, avg) = batch(&views[vi]);
                t += views[vi].quant.decode_s(bs, avg.max(1)) * over;
                for r in views[vi].reqs.iter_mut().filter(|r| !r.waiting) {
                    if deadline_s(r) < t {
                        return Verdict::NeighborLate;
                    }
                    r.tokens_done += 1;
                }
                if candidate_prefilled {
                    post_rounds[vi] += 1;
                }
            }
        }
        if candidate_prefilled
            && views.iter().enumerate().all(|(vi, v)| {
                v.reqs.iter().all(|r| !r.waiting) && (post_rounds[vi] >= 1 || batch(v).0 == 0)
            })
        {
            return Verdict::Pass;
        }
    }
    if candidate_prefilled {
        Verdict::Pass
    } else {
        Verdict::Diverged
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use hwmodel::{AnalyticPerf, HardwareSpec, ModelSpec, NoiseModel};
    use proptest::prelude::*;
    use simcore::rng::SimRng;

    fn quant(hw: &HardwareSpec) -> Quantifier {
        Quantifier::profile(
            &ModelSpec::llama2_7b(),
            hw,
            1.0,
            &AnalyticPerf::new(),
            &NoiseModel::off(),
            &mut SimRng::new(1),
            256,
        )
    }

    fn req(anchor_s: u64, input: u32, done: u32, waiting: bool) -> ShadowReq {
        ShadowReq {
            anchor: SimTime::from_secs(anchor_s),
            slo: Slo::paper(),
            input_len: input,
            tokens_done: done,
            prefill_len: input + done,
            waiting,
        }
    }

    /// Runs [`validate`] and [`validate_reference`] on the same input,
    /// asserts they agree and that `validate` left its input untouched,
    /// and returns the verdict.
    fn check(
        mut views: Vec<InstView<'_>>,
        target: usize,
        candidate_ix: usize,
        start: SimTime,
        over: f64,
    ) -> Verdict {
        let snapshot = |views: &[InstView<'_>]| {
            format!("{:?}", views.iter().map(|v| &v.reqs).collect::<Vec<_>>())
        };
        let mut reference: Vec<InstView<'_>> = views
            .iter()
            .map(|v| InstView {
                quant: v.quant,
                reqs: v.reqs.clone(),
            })
            .collect();
        let before = snapshot(&views);
        let got = validate(&mut views, target, candidate_ix, start, over);
        assert_eq!(snapshot(&views), before, "validate modified its input");
        let want = validate_reference(&mut reference, target, candidate_ix, start, over);
        assert_eq!(got, want, "kernel and reference disagree");
        got
    }

    #[test]
    fn empty_instance_accepts_fresh_request() {
        let hw = HardwareSpec::xeon4_amx_32c();
        let q = quant(&hw);
        let views = vec![InstView {
            quant: &q,
            reqs: vec![req(10, 1024, 0, true)],
        }];
        let v = check(views, 0, 0, SimTime::from_secs(10), 1.1);
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn case1_candidate_prefill_too_late() {
        // A 4K prompt behind eight other waiting 4K prefills on a CPU:
        // ~2.9 s × 9 ≈ 26 s ≫ the 8 s TTFT SLO.
        let hw = HardwareSpec::xeon4_amx_32c();
        let q = quant(&hw);
        let mut reqs: Vec<ShadowReq> = (0..8).map(|_| req(10, 4096, 0, true)).collect();
        reqs.push(req(10, 4096, 0, true));
        let cand = reqs.len() - 1;
        let views = vec![InstView { quant: &q, reqs }];
        let v = check(views, 0, cand, SimTime::from_secs(10), 1.1);
        assert!(
            matches!(v, Verdict::CandidateLate | Verdict::NeighborLate),
            "{v:?}"
        );
    }

    #[test]
    fn case2_neighbor_token_delayed_by_prefill() {
        // A 16-batch of 2K contexts decodes in ~195 ms (inflated) against a
        // 250 ms TPOT budget — headroom accrues at only ~55 ms per
        // iteration. A 4K prefill (~3.2 s inflated) can never be absorbed
        // within the candidate's 8 s TTFT window, so admission must be
        // rejected (the violation may surface as the neighbour's or the
        // candidate's deadline depending on which the replay hits first).
        let hw = HardwareSpec::xeon4_amx_32c();
        let q = quant(&hw);
        let mk_views = |cand_input: u32| {
            // Each neighbour: anchored at 0, input 2048 (TTFT 4 s), 65
            // tokens done => next deadline 20.25 s; replay starts at 20 s.
            let mut reqs: Vec<ShadowReq> = (0..16).map(|_| req(0, 2048, 65, false)).collect();
            reqs.push(ShadowReq {
                anchor: SimTime::from_secs(20),
                slo: Slo::paper(),
                input_len: cand_input,
                tokens_done: 0,
                prefill_len: cand_input,
                waiting: true,
            });
            reqs
        };
        // Big prefill: rejected.
        let views = vec![InstView {
            quant: &q,
            reqs: mk_views(4096),
        }];
        let v = check(views, 0, 16, SimTime::from_secs(20), 1.1);
        assert!(
            matches!(v, Verdict::NeighborLate | Verdict::CandidateLate),
            "{v:?}"
        );
        // A tiny prefill (~90 ms) in the same situation is absorbable.
        let views = vec![InstView {
            quant: &q,
            reqs: mk_views(128),
        }];
        let v = check(views, 0, 16, SimTime::from_secs(20), 1.1);
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn case3_aggregate_decode_overload() {
        // Two CPU instances each holding a 16-batch of 2K contexts decode in
        // ~0.18 s each; together ≈ 0.36 s > 0.25 s TPOT — adding anything
        // must be rejected by the aggregate check.
        let hw = HardwareSpec::xeon4_amx_32c();
        let q1 = quant(&hw);
        let q2 = quant(&hw);
        let mk = |n: u32| -> Vec<ShadowReq> { (0..n).map(|_| req(0, 2048, 5, false)).collect() };
        let mut reqs = mk(16);
        reqs.push(req(20, 512, 0, true)); // small candidate
        let views = vec![
            InstView { quant: &q1, reqs },
            InstView {
                quant: &q2,
                reqs: mk(16),
            },
        ];
        let cand = 16;
        let v = check(views, 0, cand, SimTime::from_secs(20), 1.1);
        assert_eq!(v, Verdict::AggregateOverload);
    }

    #[test]
    fn gpu_absorbs_what_cpu_cannot() {
        // The same 4K-prompt-behind-queue scenario passes on an A100, whose
        // prefills are ~30× faster.
        let hw = HardwareSpec::a100_80g();
        let q = quant(&hw);
        let mut reqs: Vec<ShadowReq> = (0..8).map(|_| req(10, 4096, 0, true)).collect();
        reqs.push(req(10, 4096, 0, true));
        let cand = reqs.len() - 1;
        let views = vec![InstView { quant: &q, reqs }];
        let v = check(views, 0, cand, SimTime::from_secs(10), 1.1);
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn overestimate_tightens_admission() {
        // A scenario near the TTFT boundary: passes at 1.0×, fails at 2.5×.
        let hw = HardwareSpec::xeon4_amx_32c();
        let q = quant(&hw);
        let build = || {
            vec![InstView {
                quant: &q,
                reqs: vec![req(10, 2048, 0, true), req(10, 2048, 0, true)],
            }]
        };
        assert_eq!(
            check(build(), 0, 1, SimTime::from_secs(10), 1.0),
            Verdict::Pass
        );
        let v = check(build(), 0, 1, SimTime::from_secs(10), 2.5);
        assert_ne!(v, Verdict::Pass);
    }

    /// Equal headrooms are broken in scan order: earlier waiting requests
    /// first, and a view's waiting requests before its decode round. Both
    /// cases are built so the other order would flip the verdict.
    #[test]
    fn exact_ties_keep_scan_order() {
        let hw = HardwareSpec::xeon4_amx_32c();
        let q = quant(&hw);
        let over = 1.1;
        let deadline = 12.0; // anchor 10 s + the 2 s TTFT of a 1024 prompt
        let p = q.prefill_s(1024) * over;

        // Waiting vs decoding, deadlines tied at 12 s. Prefilling the
        // candidate first makes the neighbour's decode late; decoding first
        // would make the candidate late instead.
        let neighbour = req(0, 1024, 40, false); // 0 + 2 + 40·0.25 = 12 s
        let d1 = q.decode_s(1, 1064) * over;
        let d2 = q.decode_s(2, 1044) * over;
        let start = SimTime::from_secs_f64(deadline - p - d1.min(d2) / 2.0);
        let views = vec![InstView {
            quant: &q,
            reqs: vec![neighbour, req(10, 1024, 0, true)],
        }];
        assert_eq!(check(views, 0, 1, start, over), Verdict::NeighborLate);

        // Two waiting requests tied at 12 s: the earlier one (a neighbour)
        // prefills first and the candidate misses its TTFT.
        let start = SimTime::from_secs_f64(deadline - 1.5 * p);
        let views = vec![InstView {
            quant: &q,
            reqs: vec![req(10, 1024, 0, true), req(10, 1024, 0, true)],
        }];
        assert_eq!(check(views, 0, 1, start, over), Verdict::CandidateLate);
    }

    #[test]
    fn far_future_candidate_diverges() {
        // A candidate anchored at the end of time saturates its deadline
        // and is never the most urgent item, so the replay runs out of
        // steps with the candidate still waiting.
        let hw = HardwareSpec::a100_80g();
        let q = quant(&hw);
        let mut reqs: Vec<ShadowReq> = (0..4).map(|_| req(0, 512, 3, false)).collect();
        let mut cand = req(0, 512, 0, true);
        cand.anchor = SimTime::MAX;
        reqs.push(cand);
        let views = vec![InstView { quant: &q, reqs }];
        let v = check(views, 0, 4, SimTime::from_secs(1), 1.1);
        assert_eq!(v, Verdict::Diverged);
    }

    /// CPU profiles at shares 1, ½ and ¼, then the same on an A100, with
    /// measurement noise, shared by the differential tests.
    fn quant_pool() -> &'static [Quantifier] {
        static POOL: OnceLock<Vec<Quantifier>> = OnceLock::new();
        POOL.get_or_init(|| {
            let mut rng = SimRng::new(5);
            let noise = NoiseModel::new(0.05);
            let mut pool = Vec::new();
            for hw in [HardwareSpec::xeon4_amx_32c(), HardwareSpec::a100_80g()] {
                for share in [1.0, 0.5, 0.25] {
                    pool.push(Quantifier::profile(
                        &ModelSpec::llama2_7b(),
                        &hw,
                        share,
                        &AnalyticPerf::new(),
                        &noise,
                        &mut rng,
                        256,
                    ));
                }
            }
            pool
        })
    }

    /// A drawn request: anchor (ms), SLO class draw, prompt length, tokens
    /// done, waiting. A waiting request with tokens done re-prefills its
    /// whole context, as after a migration.
    type RawReq = (u64, u8, u32, u32, bool);

    fn arb_req() -> impl Strategy<Value = RawReq> {
        (0u64..60_000, 0u8..50, 1u32..4096, 0u32..300, any::<bool>())
    }

    fn shadow_req((anchor_ms, class, input_len, tokens_done, waiting): RawReq) -> ShadowReq {
        // Mostly the paper's SLO: one tight request tightens the node's
        // aggregate bound, so a uniform class mix would make nearly every
        // case an aggregate overload.
        let slo = match class {
            0..=39 => Slo::paper(),
            40..=48 => Slo::relaxed(),
            _ => Slo::tight(),
        };
        ShadowReq {
            anchor: SimTime::from_millis(anchor_ms),
            slo,
            input_len,
            tokens_done,
            prefill_len: input_len + tokens_done,
            waiting,
        }
    }

    /// A drawn view: share index, requests, and a cap on how many of
    /// them to keep (the minimum of two uniform lengths favours the short
    /// queues that let the replay run instead of failing case 3 at once).
    type RawView = (usize, Vec<RawReq>, usize);

    /// Builds one differential case — the views of one CPU or A100 node,
    /// the candidate inserted into view `target` at `position` (both
    /// reduced modulo the sizes) — and checks it.
    fn run_case(
        gpu: bool,
        views: &[RawView],
        target: usize,
        (candidate, position): (RawReq, usize),
        start_ms: u64,
        over: f64,
    ) -> Verdict {
        let pool = quant_pool();
        let target = target % views.len();
        let mut built: Vec<InstView<'_>> = views
            .iter()
            .map(|(q, reqs, keep)| InstView {
                quant: &pool[3 * usize::from(gpu) + q % 3],
                reqs: reqs.iter().take(*keep).copied().map(shadow_req).collect(),
            })
            .collect();
        let reqs = &mut built[target].reqs;
        let candidate_ix = position % (reqs.len() + 1);
        // The candidate arrived at most 10 s before the replay starts, so
        // its TTFT deadline falls on either side of the start, and has
        // produced at most a few tokens (a PD handoff has one).
        let (anchor_ms, class, input_len, tokens_done, waiting) = candidate;
        let cand = shadow_req((
            start_ms.saturating_sub(anchor_ms % 10_000),
            class,
            input_len,
            tokens_done % 4,
            waiting,
        ));
        reqs.insert(candidate_ix, cand);
        check(
            built,
            target,
            candidate_ix,
            SimTime::from_millis(start_ms),
            over,
        )
    }

    proptest! {
        #[test]
        fn validate_matches_reference(
            gpu in any::<bool>(),
            views in prop::collection::vec(
                (0usize..3, prop::collection::vec(arb_req(), 0..25), 0usize..25),
                1..7,
            ),
            target in any::<usize>(),
            candidate in (arb_req(), any::<usize>()),
            start_ms in 0u64..30_000,
            over in prop_oneof![Just(1.0), Just(1.1), Just(1.5)],
        ) {
            run_case(gpu, &views, target, candidate, start_ms, over);
        }
    }

    /// The differential inputs are not degenerate: across a fixed sample
    /// every verdict the scheduler can see comes up.
    #[test]
    fn differential_inputs_reach_every_verdict() {
        let mut rng = SimRng::new(11);
        let draw = |rng: &mut SimRng| -> RawReq {
            (
                rng.next_below(60_000),
                rng.next_below(50) as u8,
                rng.next_range(1, 4096) as u32,
                rng.next_below(300) as u32,
                rng.next_bool(0.5),
            )
        };
        let mut seen = [0usize; 5];
        for _ in 0..1000 {
            let views: Vec<RawView> = (0..rng.next_range(1, 7))
                .map(|_| {
                    let q = rng.next_below(3) as usize;
                    let n = rng.next_below(25);
                    let reqs = (0..n).map(|_| draw(&mut rng)).collect();
                    (q, reqs, rng.next_below(25) as usize)
                })
                .collect();
            let target = rng.next_u64() as usize;
            let candidate = (draw(&mut rng), rng.next_u64() as usize);
            let start_ms = rng.next_below(30_000);
            let over = [1.0, 1.1, 1.5][rng.next_below(3) as usize];
            let gpu = rng.next_bool(0.5);
            let v = run_case(gpu, &views, target, candidate, start_ms, over);
            seen[v as usize] += 1;
        }
        for (v, n) in [
            Verdict::Pass,
            Verdict::CandidateLate,
            Verdict::NeighborLate,
            Verdict::AggregateOverload,
        ]
        .into_iter()
        .map(|v| (v, seen[v as usize]))
        {
            assert!(n > 0, "{v:?} never drawn: {seen:?}");
        }
    }
}
