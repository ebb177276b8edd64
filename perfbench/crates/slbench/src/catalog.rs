//! The benchmark's metric catalogue: every name it prints, with unit,
//! direction, and — for per-layer metrics — the end-to-end metrics a change
//! to that layer should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! benchmark's tests keep the two in step.

use crate::tracer::Callback;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, waste).
    Lower,
    /// Larger is better (attainment, hits, throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit (`s`, `ms`, `MB`, `ratio`, `count`, ...).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics (host or simulated) this one should move; empty
    /// for those metrics themselves and for the tracing-cost metric.
    pub moves: &'static [&'static str],
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end host metrics: the simulator as a program. Measured with
/// tracing off; each carries a bound in `BENCHMARK.json`.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("run_s", "s", Lower, &[]),
        metric("setup_s", "s", Lower, &[]),
        metric("peak_rss_mb", "MB", Lower, &[]),
    ]
}

/// End-to-end simulated metrics: outputs of the serving model, pooled over
/// a run's traces. They are exact at a fixed seed but swing widely from
/// seed to seed (an overloaded SLINFER's SLO attainment ranges 0.23-0.74
/// over single `zoo_overload` traces), far beyond any bound the benchmark
/// may gate on, so they carry none: compare them between commits at equal
/// seeds. Reported with the per-layer metrics.
pub fn simulated() -> Vec<Metric> {
    vec![
        metric("slo_attainment", "ratio", Higher, &[]),
        metric("dropped_share", "ratio", Lower, &[]),
        metric("ttft_p50_s", "s", Lower, &[]),
        metric("ttft_p99_s", "s", Lower, &[]),
        metric("tpot_p50_s", "s", Lower, &[]),
        metric("tpot_p99_s", "s", Lower, &[]),
        metric("gpu_node_s_per_slo_met", "s", Lower, &[]),
        metric("slo_met_vs_sllm", "ratio", Higher, &[]),
    ]
}

const RUN: &[&str] = &["run_s"];
const CORE_DECISIONS: &[&str] = &["slo_attainment", "ttft_p99_s", "slo_met_vs_sllm", "run_s"];
const DRIVER: &[&str] = &["run_s", "peak_rss_mb"];
const COLD_PATH: &[&str] = &["ttft_p99_s"];
const SESSIONS: &[&str] = &["ttft_p50_s", "slo_attainment"];
const ENGINE: &[&str] = &["tpot_p99_s", "gpu_node_s_per_slo_met"];
const SETUP: &[&str] = &["setup_s"];

/// Metrics of the traced run: the [`simulated`] metrics, then the
/// per-layer metrics proper.
pub fn per_layer() -> Vec<Metric> {
    let mut out = simulated();
    for layer in ["core", "baselines"] {
        for cb in Callback::ALL {
            let base = format!("{layer}.{}", cb.name());
            out.push(metric(format!("{base}.calls"), "count", Lower, RUN));
            out.push(metric(format!("{base}.host_s"), "s", Lower, RUN));
            out.push(metric(format!("{base}.us_p50"), "us", Lower, RUN));
            out.push(metric(format!("{base}.us_p99"), "us", Lower, RUN));
        }
    }
    out.extend([
        metric("core.shadow_validations", "count", Lower, CORE_DECISIONS),
        metric(
            "core.shadow_validations_per_request",
            "ratio",
            Lower,
            CORE_DECISIONS,
        ),
        metric("core.scale_ops", "count", Lower, CORE_DECISIONS),
        metric("core.scale_blocked_share", "ratio", Lower, CORE_DECISIONS),
        metric("core.preemptions", "count", Lower, CORE_DECISIONS),
        metric("core.migrations", "count", Lower, CORE_DECISIONS),
        metric("cluster.driver_s", "s", Lower, DRIVER),
        metric("checkpoint.loads.hbm", "count", Higher, COLD_PATH),
        metric("checkpoint.loads.dram", "count", Higher, COLD_PATH),
        metric("checkpoint.loads.ssd", "count", Lower, COLD_PATH),
        metric("checkpoint.loads.remote", "count", Lower, COLD_PATH),
        metric("cluster.cold_starts", "count", Lower, COLD_PATH),
        metric("cluster.cold_start_s", "s", Lower, COLD_PATH),
        metric("dist.peer_fetches", "count", Higher, COLD_PATH),
        metric("dist.multicast_relays", "count", Higher, COLD_PATH),
        metric("dist.transfer_reroutes", "count", Lower, COLD_PATH),
        metric("sessions.prefix_hit_tokens", "count", Higher, SESSIONS),
        metric("sessions.prefix_hit_share", "ratio", Higher, SESSIONS),
        metric("sessions.kv_migrations", "count", Lower, SESSIONS),
        metric("sessions.warm_ttft_p50_s", "s", Lower, SESSIONS),
        metric("sessions.cold_ttft_p50_s", "s", Lower, SESSIONS),
        metric("engine.batch_size_mean", "count", Higher, ENGINE),
        metric("engine.kv_util_mean", "ratio", Higher, ENGINE),
        metric(
            "engine.decode_tok_per_node_s.gpu",
            "tok/node/s",
            Higher,
            ENGINE,
        ),
        metric(
            "engine.decode_tok_per_node_s.cpu",
            "tok/node/s",
            Higher,
            ENGINE,
        ),
        metric("workload.generate_s", "s", Lower, SETUP),
        metric("workload.requests", "count", Higher, SETUP),
        metric("cluster.build_s", "s", Lower, SETUP),
        metric("trace.overhead_share", "ratio", Lower, &[]),
    ]);
    out
}

/// True for a valid metric name: non-empty, `[A-Za-z0-9_.-]`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
