//! Policy-callback tracer: a [`Policy`] wrapper that records one span per
//! callback.
//!
//! A span holds the callback, its start and end (nanoseconds since the
//! tracer was created), and the request id when the callback carries one.
//! Spans stay in memory during the replay; [`Spans::write_to`] writes them
//! out after the run, and [`Spans::stats`] folds them into the per-callback
//! counts, busy time and latency percentiles the benchmark reports.
//!
//! The wrapper forwards every callback unchanged, so a traced replay makes
//! exactly the decisions an untraced one makes — the benchmark checks that
//! by comparing request-record fingerprints.

use std::io::{self, Write};
use std::time::Instant;

use cluster::{ClusterEvent, NodeId, Policy, World};
use engine::instance::InstanceId;
use engine::request::RunningRequest;
use workload::request::RequestId;

/// The `Policy` callbacks, in trait order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    OnArrival,
    OnSlotFree,
    OnLoadDone,
    OnScaleDone,
    OnPrefillDone,
    OnRequestDone,
    OnAllocFailure,
    OnKeepalive,
    OnTimer,
    OnNodeEvent,
}

impl Callback {
    /// Every callback, in trait order (the index of each is its span tag).
    pub const ALL: [Callback; 10] = [
        Callback::OnArrival,
        Callback::OnSlotFree,
        Callback::OnLoadDone,
        Callback::OnScaleDone,
        Callback::OnPrefillDone,
        Callback::OnRequestDone,
        Callback::OnAllocFailure,
        Callback::OnKeepalive,
        Callback::OnTimer,
        Callback::OnNodeEvent,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Callback::OnArrival => "on_arrival",
            Callback::OnSlotFree => "on_slot_free",
            Callback::OnLoadDone => "on_load_done",
            Callback::OnScaleDone => "on_scale_done",
            Callback::OnPrefillDone => "on_prefill_done",
            Callback::OnRequestDone => "on_request_done",
            Callback::OnAllocFailure => "on_alloc_failure",
            Callback::OnKeepalive => "on_keepalive",
            Callback::OnTimer => "on_timer",
            Callback::OnNodeEvent => "on_node_event",
        }
    }
}

/// Request-id field value of a span whose callback carries no request.
pub const NO_REQUEST: u32 = u32::MAX;

/// One callback invocation. 16 bytes, so a day-long replay's ~12M spans
/// fit in a couple of hundred MB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns (saturates at ~4.3 s).
    pub dur_ns: u32,
    /// Request id, or [`NO_REQUEST`].
    pub req: u32,
}

impl Span {
    /// End, ns since the tracer was created.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.dur_ns)
    }
}

/// All spans of one replay, one list per callback.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    by_callback: [Vec<Span>; 10],
}

/// Aggregates of one callback's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallbackStats {
    /// Invocations.
    pub calls: u64,
    /// Summed duration, seconds.
    pub host_s: f64,
    /// Median duration, µs (nearest rank; 0 without calls).
    pub us_p50: f64,
    /// 99th-percentile duration, µs (nearest rank; 0 without calls).
    pub us_p99: f64,
}

impl Spans {
    /// The spans recorded for `cb`, in call order.
    pub fn of(&self, cb: Callback) -> &[Span] {
        &self.by_callback[cb as usize]
    }

    /// Total spans over all callbacks.
    pub fn len(&self) -> usize {
        self.by_callback.iter().map(Vec::len).sum()
    }

    /// True when no callback ran.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed duration of every span, seconds.
    pub fn total_s(&self) -> f64 {
        Callback::ALL.iter().map(|&cb| self.stats(cb).host_s).sum()
    }

    /// Count, busy time and percentiles of one callback's spans.
    pub fn stats(&self, cb: Callback) -> CallbackStats {
        let spans = self.of(cb);
        if spans.is_empty() {
            return CallbackStats::default();
        }
        let mut durs: Vec<u32> = spans.iter().map(|s| s.dur_ns).collect();
        durs.sort_unstable();
        let rank = |p: f64| {
            let r = ((p / 100.0) * durs.len() as f64).ceil() as usize;
            f64::from(durs[r.saturating_sub(1).min(durs.len() - 1)]) / 1e3
        };
        CallbackStats {
            calls: spans.len() as u64,
            host_s: durs.iter().map(|&d| u64::from(d)).sum::<u64>() as f64 / 1e9,
            us_p50: rank(50.0),
            us_p99: rank(99.0),
        }
    }

    /// Writes every span as tab-separated text, one line per span:
    /// `callback  start_ns  end_ns  request` (`-` for no request), grouped
    /// by callback in trait order and in call order within a group.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "callback\tstart_ns\tend_ns\trequest")?;
        for cb in Callback::ALL {
            for s in self.of(cb) {
                if s.req == NO_REQUEST {
                    writeln!(out, "{}\t{}\t{}\t-", cb.name(), s.start_ns, s.end_ns())?;
                } else {
                    writeln!(
                        out,
                        "{}\t{}\t{}\t{}",
                        cb.name(),
                        s.start_ns,
                        s.end_ns(),
                        s.req
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// A policy wrapped so each callback records a [`Span`] into a borrowed
/// [`Spans`] store (`Simulation::run` consumes its policy, so the spans
/// live outside it).
pub struct Traced<'s, P> {
    inner: P,
    origin: Instant,
    spans: &'s mut Spans,
}

impl<'s, P: Policy> Traced<'s, P> {
    /// Wraps `inner`, recording into `spans`; span times count from now.
    pub fn new(inner: P, spans: &'s mut Spans) -> Self {
        Traced {
            inner,
            // detlint::allow(D003, "span timestamps measure host time only; the simulation never reads them")
            origin: Instant::now(),
            spans,
        }
    }

    fn span(&mut self, cb: Callback, req: Option<RequestId>, f: impl FnOnce(&mut P)) {
        // detlint::allow(D003, "span start: host timing around a policy callback, never fed back into the simulation")
        let start = Instant::now();
        f(&mut self.inner);
        // detlint::allow(D003, "span end: host timing around a policy callback, never fed back into the simulation")
        let end = Instant::now();
        let start_ns = start.duration_since(self.origin).as_nanos();
        let dur_ns = end.duration_since(start).as_nanos();
        self.spans.by_callback[cb as usize].push(Span {
            start_ns: u64::try_from(start_ns).unwrap_or(u64::MAX),
            dur_ns: u32::try_from(dur_ns).unwrap_or(u32::MAX),
            req: req
                .and_then(|r| u32::try_from(r.0).ok())
                .unwrap_or(NO_REQUEST),
        });
    }
}

impl<P: Policy> Policy for Traced<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        let id = rr.req.id;
        self.span(Callback::OnArrival, Some(id), |p| p.on_arrival(w, rr));
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        self.span(Callback::OnSlotFree, None, |p| {
            p.on_slot_free(w, node, slot)
        });
    }

    fn on_load_done(&mut self, w: &mut World, inst: InstanceId) {
        self.span(Callback::OnLoadDone, None, |p| p.on_load_done(w, inst));
    }

    fn on_scale_done(&mut self, w: &mut World, inst: InstanceId) {
        self.span(Callback::OnScaleDone, None, |p| p.on_scale_done(w, inst));
    }

    fn on_prefill_done(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        self.span(Callback::OnPrefillDone, Some(req), |p| {
            p.on_prefill_done(w, inst, req)
        });
    }

    fn on_request_done(&mut self, w: &mut World, inst: InstanceId, rr: &RunningRequest) {
        self.span(Callback::OnRequestDone, Some(rr.req.id), |p| {
            p.on_request_done(w, inst, rr)
        });
    }

    fn on_alloc_failure(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        self.span(Callback::OnAllocFailure, Some(req), |p| {
            p.on_alloc_failure(w, inst, req)
        });
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        self.span(Callback::OnKeepalive, None, |p| p.on_keepalive(w, inst));
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        self.span(Callback::OnTimer, None, |p| p.on_timer(w, payload));
    }

    fn on_node_event(&mut self, w: &mut World, ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        self.span(Callback::OnNodeEvent, None, |p| {
            p.on_node_event(w, ev, displaced)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_use_nearest_rank_and_spans_write_one_line_each() {
        let mut spans = Spans::default();
        for d in 1..=100u32 {
            spans.by_callback[Callback::OnTimer as usize].push(Span {
                start_ns: u64::from(d) * 1_000,
                dur_ns: d,
                req: NO_REQUEST,
            });
        }
        spans.by_callback[Callback::OnArrival as usize].push(Span {
            start_ns: 0,
            dur_ns: 7,
            req: 42,
        });
        let st = spans.stats(Callback::OnTimer);
        assert_eq!(st.calls, 100);
        assert_eq!(st.us_p50, 0.05);
        assert_eq!(st.us_p99, 0.099);
        assert!((st.host_s - 5050e-9).abs() < 1e-15);
        assert_eq!(spans.stats(Callback::OnSlotFree), CallbackStats::default());
        assert_eq!(spans.len(), 101);

        let mut out = Vec::new();
        spans.write_to(&mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 102);
        assert_eq!(lines[1], "on_arrival\t0\t7\t42");
        assert_eq!(lines[2], "on_timer\t1000\t1001\t-");
    }
}
