//! Per-cell memoization for multi-experiment invocations.
//!
//! `bench all` runs every registered experiment in one process, and several
//! experiments sweep overlapping (point × system × seed) cells — the same
//! fleet, model zoo, config, workload, and policy. A simulation is a pure
//! function of those inputs, so rerunning an identical cell can only
//! reproduce the identical [`RunMetrics`]. When enabled (the `bench all`
//! multi-runner turns it on), the sweep driver consults this cache before
//! running a cell and stores the result afterwards; a hit returns a clone,
//! which presents byte-identically to a fresh run.
//!
//! The key covers the *complete* cell inputs — cluster spec, model
//! registry, world config (seed, SLO classes, noise, …), environment event
//! schedule, merged trace, and the system's debug identity (which includes
//! policy configuration) — via their `Debug` representations. Anything
//! that can perturb a run is part of one of those. Two hardening details:
//!
//! - **Wide key, verified on hit.** A bare 64-bit hash trusted blindly
//!   would silently serve another cell's metrics on a collision. The key
//!   is a 64-bit bucket plus a 256-bit digest (four independent FNV-1a
//!   streams over domain-separated input); a bucket hit only serves after
//!   the full digest matches.
//! - **Length-prefixed fields.** Concatenating the `Debug` strings raw
//!   would make field boundaries ambiguous (`"ab" + "c"` vs `"a" + "bc"`);
//!   every field is hashed with a tag and a length prefix, so distinct
//!   input tuples produce distinct key material.
//!
//! Disabled by default: single experiments pay neither the hashing nor
//! the retained memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use cluster::{RunMetrics, Scenario};

use crate::runner::System;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HITS: AtomicU64 = AtomicU64::new(0);
type Cache = HashMap<u64, Vec<([u64; 4], RunMetrics)>>;
static CACHE: Mutex<Option<Cache>> = Mutex::new(None);

/// The cache key of one sweep cell: a 64-bit bucket locating the entry
/// plus a 256-bit digest verified before a hit is served, so a bucket
/// collision degrades to a miss instead of cross-serving another cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey {
    /// HashMap bucket (one of the digest words — stable across processes).
    pub bucket: u64,
    /// Four independent FNV-1a streams over the same key material.
    pub digest: [u64; 4],
}

/// Turns memoization on with a fresh cache (the `bench all` entry point).
pub fn enable() {
    *CACHE.lock().expect("memo cache poisoned") = Some(HashMap::new());
    HITS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns memoization off and drops the cache.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    *CACHE.lock().expect("memo cache poisoned") = None;
}

/// True while a multi-experiment invocation is caching cells.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Cells served from cache since [`enable`].
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Builds the cache key of one sweep cell: every input the simulation is a
/// pure function of, hashed stably (FNV-1a — no per-process randomness),
/// each field tagged and length-prefixed for domain separation.
pub fn cell_key(sc: &Scenario, sys: &System) -> CellKey {
    let mut h = WideFnv::new();
    h.field(0, format!("{:?}", sc.cluster()).as_bytes());
    h.field(1, format!("{:?}", sc.models()).as_bytes());
    h.field(2, format!("{:?}", sc.cfg()).as_bytes());
    h.field(3, format!("{:?}", sc.events()).as_bytes());
    h.field(4, format!("{:?}", sc.merged_trace().requests).as_bytes());
    h.field(5, format!("{sys:?}").as_bytes());
    h.finish()
}

/// Returns the cached metrics for `key`, if an identical cell already ran.
/// The full digest is compared before serving — a bucket collision is a
/// miss, never another cell's metrics.
pub fn lookup(key: CellKey) -> Option<RunMetrics> {
    let guard = CACHE.lock().expect("memo cache poisoned");
    let entries = guard.as_ref()?.get(&key.bucket)?;
    let m = entries
        .iter()
        .find(|(digest, _)| *digest == key.digest)
        .map(|(_, m)| m.clone());
    if m.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    m
}

/// Stores a finished cell's metrics under `key`.
pub fn store(key: CellKey, metrics: &RunMetrics) {
    let mut guard = CACHE.lock().expect("memo cache poisoned");
    if let Some(cache) = guard.as_mut() {
        let entries = cache.entry(key.bucket).or_default();
        if entries.iter().all(|(digest, _)| *digest != key.digest) {
            entries.push((key.digest, metrics.clone()));
        }
    }
}

/// Four independent FNV-1a streams fed the same length-prefixed, tagged
/// fields. The streams differ in offset basis (derived by perturbing the
/// standard basis), so a collision in one is independent of the others —
/// 256 bits of effective key material. Stable across processes/platforms.
struct WideFnv([u64; 4]);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Per-stream multipliers: the FNV prime for stream 0 (so its output is
/// plain FNV-1a), then three unrelated large odd constants (golden-ratio,
/// xxhash, and xorshift* multipliers). Different multipliers make the
/// streams different mixing functions, not one function from four seeds.
const STREAM_PRIMES: [u64; 4] = [
    FNV_PRIME,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x2545_f491_4f6c_dd1d,
];

impl WideFnv {
    fn new() -> Self {
        // Distinct offset bases on top of the distinct multipliers.
        let mut bases = [0u64; 4];
        for (i, b) in bases.iter_mut().enumerate() {
            *b = (FNV_OFFSET ^ i as u64).wrapping_mul(FNV_PRIME);
        }
        WideFnv(bases)
    }

    /// Hashes one field with a tag byte and a little-endian length prefix,
    /// so field boundaries can never alias across inputs.
    fn field(&mut self, tag: u8, bytes: &[u8]) {
        self.write(&[tag]);
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            for (s, &p) in self.0.iter_mut().zip(&STREAM_PRIMES) {
                *s ^= u64::from(b);
                *s = s.wrapping_mul(p);
            }
        }
    }

    fn finish(&self) -> CellKey {
        CellKey {
            bucket: self.0[0],
            digest: self.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::world_cfg;
    use crate::zoo;
    use hwmodel::ModelSpec;
    use workload::serverless::TraceSpec;

    fn scenario(seed: u64, load: f64) -> Scenario {
        let models = zoo::replicas(&ModelSpec::llama3_2_3b(), 2);
        Scenario::new(System::Sllm.cluster(0, 1, &models), models)
            .config(world_cfg(seed))
            .workload(
                TraceSpec::azure_like(2, seed)
                    .with_load_scale(load)
                    .generate(),
            )
    }

    #[test]
    fn keys_separate_every_axis() {
        let base = cell_key(&scenario(1, 0.1), &System::Sllm);
        assert_eq!(base, cell_key(&scenario(1, 0.1), &System::Sllm));
        assert_ne!(base, cell_key(&scenario(2, 0.1), &System::Sllm));
        assert_ne!(base, cell_key(&scenario(1, 0.2), &System::Sllm));
        assert_ne!(base, cell_key(&scenario(1, 0.1), &System::SllmC));
        // Policy configuration is part of the system identity.
        let a = cell_key(
            &scenario(1, 0.1),
            &System::Slinfer(slinfer::SlinferConfig::default()),
        );
        let b = cell_key(
            &scenario(1, 0.1),
            &System::Slinfer(slinfer::SlinferConfig {
                enable_cpu: false,
                ..slinfer::SlinferConfig::default()
            }),
        );
        assert_ne!(a, b);
    }

    /// The cache is process-global, and the test harness runs tests on
    /// parallel threads: tests that enable, fill or drop it hold this lock
    /// so one cannot drop the cache under another.
    static CACHE_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn cached_cells_present_byte_identically() {
        let _serial = serial();
        enable();
        let key = cell_key(&scenario(3, 0.1), &System::Sllm);
        assert!(lookup(key).is_none());
        let fresh = System::Sllm.run_scenario(scenario(3, 0.1));
        store(key, &fresh);
        let hit = lookup(key).expect("stored");
        assert_eq!(
            format!(
                "{:?}|{:?}|{}",
                fresh.records, fresh.usage_timeline, fresh.dropped
            ),
            format!("{:?}|{:?}|{}", hit.records, hit.usage_timeline, hit.dropped),
        );
        assert!(hits() >= 1);
        disable();
        assert!(lookup(key).is_none(), "disable drops the cache");
    }

    /// A forced bucket collision (same 64-bit bucket, different digest)
    /// must come back as a miss, never as the other cell's metrics — the
    /// regression the blind-trust 64-bit cache would have failed.
    #[test]
    fn forced_bucket_collision_does_not_cross_serve() {
        let _serial = serial();
        enable();
        let real = cell_key(&scenario(5, 0.1), &System::Sllm);
        let metrics = System::Sllm.run_scenario(scenario(5, 0.1));
        store(real, &metrics);

        // Same bucket, different key material: a 1-in-2^64 accident made
        // deliberate.
        let colliding = CellKey {
            bucket: real.bucket,
            digest: [
                real.digest[0],
                !real.digest[1],
                real.digest[2],
                real.digest[3],
            ],
        };
        assert_ne!(colliding, real);
        let before = hits();
        assert!(
            lookup(colliding).is_none(),
            "bucket collision must miss, not cross-serve"
        );
        assert_eq!(hits(), before, "a collision miss is not a hit");

        // The real key still round-trips, and distinct digests coexist in
        // one bucket without evicting each other.
        let other = System::SllmC.run_scenario(scenario(5, 0.1));
        store(colliding, &other);
        assert!(lookup(real).is_some());
        assert!(lookup(colliding).is_some());
        disable();
    }

    /// Field boundaries are length-prefixed: shifting bytes between
    /// adjacent fields must change the key.
    #[test]
    fn field_boundaries_do_not_alias() {
        let mut a = WideFnv::new();
        a.field(0, b"ab");
        a.field(1, b"c");
        let mut b = WideFnv::new();
        b.field(0, b"a");
        b.field(1, b"bc");
        assert_ne!(a.finish(), b.finish());

        // Empty vs missing field also differ (the tag+length still hash).
        let mut c = WideFnv::new();
        c.field(0, b"");
        let d = WideFnv::new();
        assert_ne!(c.finish(), d.finish());
    }
}
