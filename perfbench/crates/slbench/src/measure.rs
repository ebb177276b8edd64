//! The two kinds of benchmark run.
//!
//! Both start by replaying the workload's pool of traces once under its
//! system under test, gating every replay and pooling the simulated
//! outcomes over the whole pool. Where the system under test is SLINFER,
//! each trace is also replayed under `sllm` (untimed) for
//! `slo_met_vs_sllm` — always in the traced run, and in the end-to-end
//! run only on `zoo_overload`, whose report compares it with the paper.
//!
//! - [`end_to_end`] (tracing off) times those replays, then keeps
//!   replaying pool traces until the measuring time is used up; repeats
//!   only add timing samples, and must reproduce their fingerprint.
//! - [`traced`] replays the pool's first trace again, untraced and then
//!   with every policy callback traced (and its `sllm` counterpart traced
//!   likewise), checks the fingerprints match the pool's replays, and
//!   derives the per-layer metrics from the spans and the traced replay's
//!   `RunMetrics` counters.

use std::time::Instant;

use cluster::RunMetrics;
use hwmodel::HardwareKind;
use simcore::stats::Summary;

use crate::gate::{check_replay, fingerprint, fingerprint_hex, unresolved};
use crate::run::{build_only, generate, peak_rss_mb, replay, replay_traced, Generated};
use crate::tracer::{Callback, Spans};
use crate::workloads::{Size, System, Workload};

/// Setups timed per end-to-end run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 25;

/// Untimed setups first, so allocator and page-cache warm-up do not land
/// in the samples.
const SETUP_WARMUPS: usize = 2;

/// The paper's claimed range for SLINFER SLO-met over `sllm` SLO-met at
/// 128 models (Fig 22: +86% to +154%).
pub const PAPER_SLO_MET_VS_SLLM: (f64, f64) = (1.86, 2.54);

/// One replayed trace, as the report lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// Trace seed.
    pub seed: u64,
    /// Requests in the trace.
    pub requests: usize,
    /// Fingerprint of the system under test's replay.
    pub fingerprint: u64,
    /// Fingerprint of the `sllm` counterpart replay, when one ran.
    pub sllm_fingerprint: Option<u64>,
    /// Host seconds of each timed untraced replay of this trace.
    pub run_s: Vec<f64>,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(name, value)` in the order measured; units come from the
    /// catalogue.
    pub metrics: Vec<(String, f64)>,
    /// Requests replayed by the system under test.
    pub attempted: u64,
    /// Requests the gate found unresolved, over every replay.
    pub failed: u64,
    /// Gate violations (empty = correct).
    pub errors: Vec<String>,
    /// Per-trace identity and timings.
    pub traces: Vec<TraceLine>,
    /// Sample counts behind the latency percentiles.
    pub ttft_samples: usize,
    /// See [`Report::ttft_samples`].
    pub tpot_samples: usize,
}

impl Report {
    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn gate(&mut self, what: &str, m: &RunMetrics, trace_len: usize, system: System) {
        let errs = check_replay(m, trace_len, system == System::Slinfer);
        self.failed += unresolved(m) as u64;
        self.errors
            .extend(errs.into_iter().map(|e| format!("{what}: {e}")));
    }
}

/// Seed of the `i`-th trace in a run's pool. The first is the run seed
/// itself, so the pool's first trace is the one the rest of the
/// repository's experiments replay at that seed; the rest come from a
/// SplitMix64 step so pools of nearby seeds do not overlap.
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Simulated outcomes pooled over several replays.
#[derive(Default)]
struct Pool {
    requests: u64,
    slo_met: u64,
    dropped: u64,
    gpu_busy_s: f64,
    sllm_slo_met: u64,
    ttft: Summary,
    tpot: Summary,
}

impl Pool {
    fn add(&mut self, m: &RunMetrics) {
        self.requests += m.total() as u64;
        self.slo_met += m.slo_met() as u64;
        self.dropped += m.dropped;
        self.gpu_busy_s += m.gpu_node_busy_s;
        for r in &m.records {
            if let Some(t) = r.ttft() {
                self.ttft.add(t.as_secs_f64());
            }
            if let Some(t) = r.tpot() {
                self.tpot.add(t);
            }
        }
    }

    /// Records the pooled simulated metrics; `slo_met_vs_sllm` only when
    /// `sllm` SLO-met counts were pooled.
    fn report(mut self, rep: &mut Report, with_sllm: bool) {
        let n = self.requests.max(1) as f64;
        rep.set("slo_attainment", self.slo_met as f64 / n);
        rep.set("dropped_share", self.dropped as f64 / n);
        rep.set("ttft_p50_s", self.ttft.percentile(50.0));
        rep.set("ttft_p99_s", self.ttft.percentile(99.0));
        rep.set("tpot_p50_s", self.tpot.percentile(50.0));
        rep.set("tpot_p99_s", self.tpot.percentile(99.0));
        rep.set(
            "gpu_node_s_per_slo_met",
            self.gpu_busy_s / self.slo_met.max(1) as f64,
        );
        if with_sllm {
            rep.set(
                "slo_met_vs_sllm",
                self.slo_met as f64 / self.sllm_slo_met.max(1) as f64,
            );
        }
        rep.ttft_samples = self.ttft.count();
        rep.tpot_samples = self.tpot.count();
    }
}

/// Replays every trace of the run's pool once under the system under
/// test (timed) and, when that is SLINFER and `with_sllm` is set, under
/// `sllm` (untimed); gates each replay and records the pooled simulated
/// metrics. Returns the generated traces for later repeats.
fn replay_pool(
    workload: Workload,
    seed: u64,
    size: Size,
    with_sllm: bool,
    rep: &mut Report,
) -> Vec<Generated> {
    let system = workload.system();
    let mut pool = Pool::default();
    let mut generated = Vec::with_capacity(workload.pool());
    for i in 0..workload.pool() {
        let seed = trace_seed(seed, i);
        let g = generate(workload, seed, size);
        let r = replay(&g, system);
        let what = format!("trace seed {seed}");
        rep.gate(&what, &r.metrics, g.trace.len(), system);
        rep.attempted += g.trace.len() as u64;
        pool.add(&r.metrics);
        let mut line = TraceLine {
            seed,
            requests: g.trace.len(),
            fingerprint: fingerprint(&r.metrics),
            sllm_fingerprint: None,
            run_s: vec![r.run_s],
        };
        if system == System::Sllm {
            pool.sllm_slo_met += r.metrics.slo_met() as u64;
        } else if with_sllm {
            let s = replay(&g, System::Sllm);
            rep.gate(
                &format!("{what} sllm"),
                &s.metrics,
                g.trace.len(),
                System::Sllm,
            );
            pool.sllm_slo_met += s.metrics.slo_met() as u64;
            line.sllm_fingerprint = Some(fingerprint(&s.metrics));
        }
        rep.traces.push(line);
        generated.push(g);
    }
    pool.report(rep, with_sllm || system == System::Sllm);
    generated
}

/// The end-to-end run: see the module docs. `seconds` is the measuring
/// time; the pool is always replayed once in full even if that takes
/// longer.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let system = workload.system();
    let mut rep = Report::default();

    // Setup: seed → ready Simulation, timed on its own, cycling the pool.
    let setup: Vec<f64> = (0..SETUP_WARMUPS + SETUP_SAMPLES)
        .map(|i| {
            let g = generate(workload, trace_seed(seed, i % workload.pool()), size);
            g.generate_s + build_only(&g, system)
        })
        .skip(SETUP_WARMUPS)
        .collect();

    // detlint::allow(D003, "bounds the benchmark's measuring time; simulated results never depend on it")
    let started = Instant::now();
    // Only zoo_overload's report needs slo_met_vs_sllm, for its
    // paper-reference line.
    let with_sllm = workload == Workload::ZooOverload;
    let generated = replay_pool(workload, seed, size, with_sllm, &mut rep);
    // Timing repeats, cycling through the pool, until the time is used.
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let k = i % generated.len();
        let r = replay(&generated[k], system);
        let (seed, expected) = (rep.traces[k].seed, rep.traces[k].fingerprint);
        check_fingerprint(
            &mut rep,
            &format!("trace seed {seed} repeat"),
            &r.metrics,
            expected,
        );
        rep.traces[k].run_s.push(r.run_s);
        i += 1;
    }

    // run_s: mean over the pool of each trace's median replay time.
    let run_s = rep.traces.iter().map(|t| median(&t.run_s)).sum::<f64>() / rep.traces.len() as f64;
    rep.set("run_s", run_s);
    rep.set("setup_s", median(&setup));
    rep.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    rep
}

/// The traced run: see the module docs. Returns the report and the system
/// under test's spans.
pub fn traced(workload: Workload, seed: u64, size: Size) -> (Report, Spans) {
    let mut rep = Report::default();
    let generated = replay_pool(workload, seed, size, true, &mut rep);
    let g = &generated[0];
    let first = rep.traces[0].clone();

    let system = workload.system();
    // A second untraced replay right before the traced one, so the tracing
    // cost compares two warm replays.
    let warm = replay(g, system);
    check_fingerprint(&mut rep, "repeat", &warm.metrics, first.fingerprint);
    let mut spans = Spans::default();
    let sut = replay_traced(g, system, &mut spans);
    rep.gate("traced replay", &sut.metrics, g.trace.len(), system);
    rep.attempted += g.trace.len() as u64;
    check_fingerprint(&mut rep, "traced", &sut.metrics, first.fingerprint);
    rep.traces[0].run_s.push(warm.run_s);
    // The sllm counterpart, traced too: its spans give the baselines.*
    // callback metrics where the system under test is SLINFER.
    let mut sllm_spans = Spans::default();
    if let Some(untraced) = first.sllm_fingerprint {
        let s = replay_traced(g, System::Sllm, &mut sllm_spans);
        rep.gate(
            "traced sllm replay",
            &s.metrics,
            g.trace.len(),
            System::Sllm,
        );
        check_fingerprint(&mut rep, "traced sllm", &s.metrics, untraced);
    }
    let (core_spans, base_spans) = match system {
        System::Slinfer => (&spans, &sllm_spans),
        System::Sllm => (&sllm_spans, &spans),
    };
    for (layer, layer_spans) in [("core", core_spans), ("baselines", base_spans)] {
        for cb in Callback::ALL {
            let st = layer_spans.stats(cb);
            let name = |stat: &str| format!("{layer}.{}.{stat}", cb.name());
            rep.set(&name("calls"), st.calls as f64);
            rep.set(&name("host_s"), st.host_s);
            rep.set(&name("us_p50"), st.us_p50);
            rep.set(&name("us_p99"), st.us_p99);
        }
    }
    core_counters(
        &mut rep,
        (system == System::Slinfer).then_some(&sut.metrics),
    );
    cluster_counters(&mut rep, &sut.metrics);
    rep.set("cluster.driver_s", sut.run_s - spans.total_s());
    rep.set("workload.generate_s", g.generate_s);
    rep.set("workload.requests", g.trace.len() as f64);
    rep.set("cluster.build_s", sut.build_s);
    rep.set("trace.overhead_share", sut.run_s / warm.run_s - 1.0);
    (rep, spans)
}

/// Flags a replay whose fingerprint differs from the pool's first,
/// untraced replay of the same trace.
fn check_fingerprint(rep: &mut Report, what: &str, m: &RunMetrics, expected: u64) {
    let fp = fingerprint(m);
    if fp != expected {
        rep.errors.push(format!(
            "{what} fingerprint {} differs from the first replay's {}",
            fingerprint_hex(fp),
            fingerprint_hex(expected)
        ));
    }
}

/// SLINFER's decision counters from its traced replay; zero on workloads
/// where SLINFER does not run.
fn core_counters(rep: &mut Report, m: Option<&RunMetrics>) {
    let count = |f: fn(&RunMetrics) -> u64| m.map_or(0.0, |m| f(m) as f64);
    let validations = count(|m| m.shadow_validations);
    rep.set("core.shadow_validations", validations);
    rep.set(
        "core.shadow_validations_per_request",
        validations / m.map_or(1, |m| m.total().max(1)) as f64,
    );
    rep.set("core.scale_ops", count(|m| m.scale_ops));
    rep.set(
        "core.scale_blocked_share",
        m.map_or(0.0, |m| {
            m.scale_blocked_s / m.instance_lifetime_s.max(f64::MIN_POSITIVE)
        }),
    );
    rep.set("core.preemptions", count(|m| m.preemptions));
    rep.set("core.migrations", count(|m| m.migrations));
}

/// Checkpoint, distribution, session and engine counters of the system
/// under test's traced replay.
fn cluster_counters(rep: &mut Report, m: &RunMetrics) {
    for (i, tier) in ["hbm", "dram", "ssd", "remote"].iter().enumerate() {
        rep.set(
            &format!("checkpoint.loads.{tier}"),
            m.cold_tier_loads[i] as f64,
        );
    }
    rep.set("cluster.cold_starts", m.cold_starts as f64);
    rep.set("cluster.cold_start_s", m.cold_start_seconds_total());
    rep.set("dist.peer_fetches", m.peer_fetches as f64);
    rep.set("dist.multicast_relays", m.multicast_relays as f64);
    rep.set("dist.transfer_reroutes", m.transfer_reroutes as f64);
    let followup_prompt: u64 = m
        .records
        .iter()
        .filter(|r| r.is_warm_turn())
        .map(|r| u64::from(r.input_len))
        .sum();
    rep.set("sessions.prefix_hit_tokens", m.prefix_hit_tokens as f64);
    rep.set(
        "sessions.prefix_hit_share",
        m.prefix_hit_tokens as f64 / followup_prompt.max(1) as f64,
    );
    rep.set("sessions.kv_migrations", m.kv_migrations as f64);
    rep.set(
        "sessions.warm_ttft_p50_s",
        m.warm_ttft_summary().percentile(50.0),
    );
    rep.set(
        "sessions.cold_ttft_p50_s",
        m.cold_ttft_summary().percentile(50.0),
    );
    rep.set("engine.batch_size_mean", m.batch_sizes.mean());
    rep.set("engine.kv_util_mean", m.kv_util.mean());
    rep.set(
        "engine.decode_tok_per_node_s.gpu",
        m.decode_speed_per_node(HardwareKind::Gpu),
    );
    rep.set(
        "engine.decode_tok_per_node_s.cpu",
        m.decode_speed_per_node(HardwareKind::CpuAccel),
    );
}
