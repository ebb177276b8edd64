//! The correctness gate and the request-record fingerprint.
//!
//! A benchmark run is only worth its numbers if the simulation it timed
//! is a valid one. [`check_replay`] rejects a replay whose records do not
//! match its trace, that left a request unresolved, or (for SLINFER) that
//! hit an out-of-memory incident; [`fingerprint`] folds every request
//! record into one `u64` so two replays can be compared exactly.

use cluster::RunMetrics;

/// FNV-1a over every request record's numeric outcome plus the headline
/// counters — the same fold as the `scale` experiment's fingerprint: one
/// `u64` that changes iff the simulation's behaviour changes.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in &m.records {
        fold(r.arrival.as_micros());
        fold(r.first_token.map_or(u64::MAX, |t| t.as_micros()));
        fold(r.completed.map_or(u64::MAX, |t| t.as_micros()));
        fold(u64::from(r.model.0));
        fold(u64::from(r.input_len) << 32 | u64::from(r.output_len));
        fold(
            u64::from(r.dropped)
                | u64::from(r.ttft_violated) << 1
                | u64::from(r.tpot_violated) << 2
                | u64::from(r.cold_start) << 3
                | u64::from(r.migrations) << 8,
        );
    }
    fold(m.cold_starts);
    fold(m.dropped);
    fold(m.slo_met() as u64);
    h
}

/// A fingerprint as the report prints it: 16 lowercase hex digits.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Requests whose record is not exactly one of completed or dropped.
pub fn unresolved(m: &RunMetrics) -> usize {
    m.records
        .iter()
        .filter(|r| r.completed.is_some() == r.dropped)
        .count()
}

/// Checks one replay of a `trace_len`-request trace. `oom_must_be_zero`
/// is set for SLINFER, whose memory orchestrator promises no OOM
/// incidents. Returns every violation found (empty = pass).
pub fn check_replay(m: &RunMetrics, trace_len: usize, oom_must_be_zero: bool) -> Vec<String> {
    let mut errs = Vec::new();
    if m.records.len() != trace_len {
        errs.push(format!(
            "{} request records for a {trace_len}-request trace",
            m.records.len()
        ));
    }
    let unresolved = unresolved(m);
    if unresolved > 0 {
        errs.push(format!(
            "{unresolved} requests are not exactly one of completed or dropped"
        ));
    }
    let dropped = m.records.iter().filter(|r| r.dropped).count() as u64;
    if dropped != m.dropped {
        errs.push(format!(
            "dropped counter {} disagrees with {dropped} dropped records",
            m.dropped
        ));
    }
    if oom_must_be_zero && m.oom_incidents != 0 {
        errs.push(format!("{} OOM incidents", m.oom_incidents));
    }
    errs
}
