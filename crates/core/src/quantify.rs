//! Performance quantification (§VI-B).
//!
//! SLINFER predicts iteration times from *measurements*, not from a model it
//! assumes: for each (LLM, hardware) pair it samples TTFT over a
//! power-of-two grid of input lengths and TPOT over a power-of-two grid of
//! (batch size × average length), then answers queries by 1-D / bilinear
//! interpolation. Sampling `O(log L_max · log B_max)` points keeps profiling
//! to "a few hundred samples … completed within minutes" on real hardware —
//! here the samples come from the calibrated oracle perturbed by the same
//! noise the simulator applies to real iterations, so the quantifier's
//! estimation error is honest (the paper reports 5.9% TTFT / 3.9% TPOT mean
//! relative deviation).

use std::collections::BTreeMap;

use hwmodel::{HardwareSpec, ModelSpec, NoiseModel, PerfOracle, Precision};
use simcore::rng::SimRng;

/// Interpolating predictor for one (model, hardware, share) combination.
#[derive(Debug, Clone)]
pub struct Quantifier {
    /// `(input_len, seconds)` samples, ascending in length.
    prefill: Vec<(u32, f64)>,
    /// Batch-size grid (powers of two).
    batches: Vec<u32>,
    /// Average-length grid (powers of two).
    lengths: Vec<u32>,
    /// `decode[i][j]` = seconds at `batches[i]`, `lengths[j]`.
    decode: Vec<Vec<f64>>,
}

impl Quantifier {
    /// Profiles `(model, hw)` at compute share `share` by sampling `oracle`
    /// through `noise` (like timing real iterations).
    pub fn profile(
        model: &ModelSpec,
        hw: &HardwareSpec,
        share: f64,
        oracle: &dyn PerfOracle,
        noise: &NoiseModel,
        rng: &mut SimRng,
        max_batch: u32,
    ) -> Self {
        let l_max = model.max_context.max(2);
        let mut lengths = Vec::new();
        let mut l = 16u32;
        while l < l_max {
            lengths.push(l);
            l *= 2;
        }
        lengths.push(l_max);
        let mut batches = Vec::new();
        let mut b = 1u32;
        while b < max_batch {
            batches.push(b);
            b *= 2;
        }
        batches.push(max_batch.max(1));
        batches.dedup();

        // Tensor-parallel deployments are sampled with their collective
        // overhead folded in (the quantifier times whole iterations on the
        // deployed topology); degree-1 models hit the identical code path
        // as before, sample for sample.
        let tp = model.tp_degree.max(1);
        let prefill = lengths
            .iter()
            .map(|&len| {
                let t = oracle.prefill_time_tp(model, hw, len, share, tp);
                (len, noise.apply(t, rng))
            })
            .collect();
        let decode = batches
            .iter()
            .map(|&bs| {
                lengths
                    .iter()
                    .map(|&len| {
                        let t =
                            oracle.decode_time_tp(model, hw, bs, bs as u64 * len as u64, share, tp);
                        noise.apply(t, rng)
                    })
                    .collect()
            })
            .collect();
        Quantifier {
            prefill,
            batches,
            lengths,
            decode,
        }
    }

    /// Number of samples this profile took (the §VI-B
    /// `O(log L · log B)` budget).
    pub fn sample_count(&self) -> usize {
        self.prefill.len() + self.batches.len() * self.lengths.len()
    }

    /// Estimated prefill seconds for `input_len` tokens (1-D interpolation,
    /// linear extrapolation at the edges).
    pub fn prefill_s(&self, input_len: u32) -> f64 {
        interp1(&self.prefill, input_len as f64).max(0.0)
    }

    /// Estimated decode-iteration seconds at `batch` sequences with average
    /// context `avg_len` (bilinear interpolation).
    pub fn decode_s(&self, batch: u32, avg_len: u32) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let bi = bracket(&self.batches, batch as f64);
        let lj = bracket(&self.lengths, avg_len as f64);
        let (b0, b1) = bi;
        let (l0, l1) = lj;
        let fb = frac(
            self.batches[b0] as f64,
            self.batches[b1] as f64,
            batch as f64,
        );
        let fl = frac(
            self.lengths[l0] as f64,
            self.lengths[l1] as f64,
            avg_len as f64,
        );
        let v00 = self.decode[b0][l0];
        let v01 = self.decode[b0][l1];
        let v10 = self.decode[b1][l0];
        let v11 = self.decode[b1][l1];
        let v0 = v00 + (v01 - v00) * fl;
        let v1 = v10 + (v11 - v10) * fl;
        (v0 + (v1 - v0) * fb).max(0.0)
    }
}

/// Linear interpolation over ascending `(x, y)` samples with extrapolation.
fn interp1(samples: &[(u32, f64)], x: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    if samples.len() == 1 {
        return samples[0].1;
    }
    let (i0, i1) = bracket_by(samples.len(), |i| samples[i].0 as f64, x);
    let (x0, y0) = (samples[i0].0 as f64, samples[i0].1);
    let (x1, y1) = (samples[i1].0 as f64, samples[i1].1);
    y0 + (y1 - y0) * frac(x0, x1, x)
}

/// Indices of the two grid points bracketing `x` (clamped extrapolation
/// uses the outermost pair).
fn bracket(grid: &[u32], x: f64) -> (usize, usize) {
    bracket_by(grid.len(), |i| grid[i] as f64, x)
}

/// [`bracket`] over `n` ascending points read through `at`.
fn bracket_by(n: usize, at: impl Fn(usize) -> f64, x: f64) -> (usize, usize) {
    debug_assert!(n > 0);
    if n == 1 {
        return (0, 0);
    }
    let mut i = 0;
    while i + 2 < n && at(i + 1) < x {
        i += 1;
    }
    (i, i + 1)
}

fn frac(x0: f64, x1: f64, x: f64) -> f64 {
    if (x1 - x0).abs() < 1e-12 {
        0.0
    } else {
        (x - x0) / (x1 - x0)
    }
}

/// Lazily-profiled quantifiers keyed by `(model name, hardware name,
/// share, TP degree, precision)`. Shares are keyed by their `{:.3}`
/// rendering, so shares that print alike share a profile. A `BTreeMap`
/// (not `HashMap`) so no future iteration over the set can leak
/// hash-randomized order into policy behaviour — the bug class a
/// hash-ordered map of parked scale ops once hit.
///
/// Lookups allocate nothing once a name or share has been seen: names and
/// share renderings are interned to small ids, and each share's bit
/// pattern is remembered with the id of its rendering.
#[derive(Debug, Default)]
pub struct QuantifierSet {
    map: BTreeMap<ProfileKey, Quantifier>,
    /// Interned model and hardware names.
    names: BTreeMap<String, u32>,
    /// Interned `{share:.3}` renderings.
    share_classes: BTreeMap<String, u32>,
    /// Share bit patterns seen so far, with the id of their rendering.
    share_bits: BTreeMap<u64, u32>,
    rng: Option<SimRng>,
}

/// Identity of one profile: interned model name, interned hardware name,
/// share class, TP degree, precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ProfileKey {
    model: u32,
    hw: u32,
    share: u32,
    tp: u32,
    precision: Precision,
}

/// The id of `s` in `table`, adding it on first sight.
fn intern(table: &mut BTreeMap<String, u32>, s: &str) -> u32 {
    if let Some(&id) = table.get(s) {
        return id;
    }
    let id = table.len() as u32;
    table.insert(s.to_owned(), id);
    id
}

impl QuantifierSet {
    /// Creates an empty set whose profiling draws come from `seed`.
    pub fn new(seed: u64) -> Self {
        QuantifierSet {
            rng: Some(SimRng::new(seed).split(0x9A17)),
            ..QuantifierSet::default()
        }
    }

    /// The key of `(model, hw, share)`, interning what is new.
    fn intern_key(&mut self, model: &ModelSpec, hw: &HardwareSpec, share: f64) -> ProfileKey {
        let share = match self.share_bits.get(&share.to_bits()) {
            Some(&class) => class,
            None => {
                let class = intern(&mut self.share_classes, &format!("{share:.3}"));
                self.share_bits.insert(share.to_bits(), class);
                class
            }
        };
        ProfileKey {
            model: intern(&mut self.names, &model.name),
            hw: intern(&mut self.names, &hw.name),
            share,
            tp: model.tp_degree.max(1),
            precision: model.precision,
        }
    }

    /// The key of `(model, hw, share)` if every part has been seen.
    fn find_key(&self, model: &ModelSpec, hw: &HardwareSpec, share: f64) -> Option<ProfileKey> {
        let share = match self.share_bits.get(&share.to_bits()) {
            Some(&class) => class,
            None => *self.share_classes.get(format!("{share:.3}").as_str())?,
        };
        Some(ProfileKey {
            model: *self.names.get(model.name.as_str())?,
            hw: *self.names.get(hw.name.as_str())?,
            share,
            tp: model.tp_degree.max(1),
            precision: model.precision,
        })
    }

    /// Returns the profile for `(model, hw, share)`, profiling on first use.
    pub fn get_or_profile(
        &mut self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        share: f64,
        oracle: &dyn PerfOracle,
        noise: &NoiseModel,
    ) -> &Quantifier {
        let key = self.intern_key(model, hw, share);
        let rng = self.rng.get_or_insert_with(|| SimRng::new(0));
        self.map
            .entry(key)
            .or_insert_with(|| Quantifier::profile(model, hw, share, oracle, noise, rng, 256))
    }

    /// Immutable lookup of an already-profiled pair.
    pub fn get(&self, model: &ModelSpec, hw: &HardwareSpec, share: f64) -> Option<&Quantifier> {
        self.map.get(&self.find_key(model, hw, share)?)
    }

    /// Number of profiled pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::AnalyticPerf;

    fn profile(noise_cv: f64) -> Quantifier {
        let model = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let oracle = AnalyticPerf::new();
        let noise = NoiseModel::new(noise_cv);
        let mut rng = SimRng::new(42);
        Quantifier::profile(&model, &hw, 1.0, &oracle, &noise, &mut rng, 256)
    }

    #[test]
    fn sample_budget_is_log_log() {
        let q = profile(0.0);
        // O(log 4096 · log 256): a few hundred points at most (§VI-B).
        assert!(q.sample_count() < 200, "samples {}", q.sample_count());
    }

    #[test]
    fn noiseless_profile_interpolates_grid_points_exactly() {
        let q = profile(0.0);
        let oracle = AnalyticPerf::new();
        let model = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        for len in [16u32, 64, 1024, 4096] {
            let est = q.prefill_s(len);
            let truth = oracle.prefill_time(&model, &hw, len, 1.0);
            assert!(
                (est - truth).abs() / truth < 1e-9,
                "grid point {len}: {est} vs {truth}"
            );
        }
        for (bs, len) in [(1u32, 1024u32), (32, 1024), (8, 512)] {
            let est = q.decode_s(bs, len);
            let truth = oracle.decode_time(&model, &hw, bs, bs as u64 * len as u64, 1.0);
            assert!(
                (est - truth).abs() / truth < 1e-9,
                "grid ({bs},{len}): {est} vs {truth}"
            );
        }
    }

    #[test]
    fn off_grid_interpolation_is_close() {
        // The decode surface is bilinear in (batch, len) and the true model
        // is linear in batch and total tokens (= batch·len, slightly
        // super-bilinear), so off-grid error stays small.
        let q = profile(0.0);
        let oracle = AnalyticPerf::new();
        let model = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        for (bs, len) in [(3u32, 700u32), (12, 1500), (48, 900), (5, 3000)] {
            let est = q.decode_s(bs, len);
            let truth = oracle.decode_time(&model, &hw, bs, bs as u64 * len as u64, 1.0);
            let err = (est - truth).abs() / truth;
            assert!(err < 0.12, "({bs},{len}): err {err}");
        }
        for len in [100u32, 777, 2500, 3900] {
            let est = q.prefill_s(len);
            let truth = oracle.prefill_time(&model, &hw, len, 1.0);
            let err = (est - truth).abs() / truth;
            assert!(err < 0.08, "prefill {len}: err {err}");
        }
    }

    /// §VI-B's validation experiment: 100 random workloads, mean relative
    /// deviation between estimated and *noisy actual* times ≈ 5.9% / 3.9%.
    #[test]
    fn estimation_error_matches_paper_magnitudes() {
        let q = profile(0.05);
        let oracle = AnalyticPerf::new();
        let noise = NoiseModel::new(0.05);
        let model = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let mut rng = SimRng::new(7);
        let mut ttft_err = 0.0;
        let mut tpot_err = 0.0;
        let n = 100;
        for _ in 0..n {
            let len = rng.next_range(64, 4000) as u32;
            let actual = noise.apply(oracle.prefill_time(&model, &hw, len, 1.0), &mut rng);
            ttft_err += (q.prefill_s(len) - actual).abs() / actual;
            let bs = rng.next_range(1, 32) as u32;
            let alen = rng.next_range(128, 3000) as u32;
            let actual = noise.apply(
                oracle.decode_time(&model, &hw, bs, bs as u64 * alen as u64, 1.0),
                &mut rng,
            );
            tpot_err += (q.decode_s(bs, alen) - actual).abs() / actual;
        }
        ttft_err /= n as f64;
        tpot_err /= n as f64;
        // Paper: 5.9% and 3.9%. Accept the same order of magnitude.
        assert!(
            (0.02..0.12).contains(&ttft_err),
            "TTFT deviation {ttft_err}"
        );
        assert!(
            (0.02..0.12).contains(&tpot_err),
            "TPOT deviation {tpot_err}"
        );
    }

    #[test]
    fn monotone_queries() {
        let q = profile(0.0);
        assert!(q.prefill_s(2000) > q.prefill_s(500));
        assert!(q.decode_s(32, 1024) > q.decode_s(4, 1024));
        assert!(q.decode_s(8, 4000) > q.decode_s(8, 500));
        assert_eq!(q.decode_s(0, 1024), 0.0);
    }

    #[test]
    fn tp_profiles_fold_in_the_interconnect() {
        let oracle = AnalyticPerf::new();
        let noise = NoiseModel::off();
        let hw = HardwareSpec::a100_80g().ganged(4);
        let base = ModelSpec::llama2_13b();
        let tp2 = base.clone().with_tp(2);
        let mut rng = SimRng::new(3);
        let q1 = Quantifier::profile(&base, &hw, 0.5, &oracle, &noise, &mut rng, 256);
        let mut rng = SimRng::new(3);
        let q2 = Quantifier::profile(&tp2, &hw, 0.5, &oracle, &noise, &mut rng, 256);
        // Same compute share, but TP=2 pays the all-reduce term.
        assert!(q2.prefill_s(2048) > q1.prefill_s(2048));
        assert!(q2.decode_s(16, 1024) > q1.decode_s(16, 1024));
        // Distinct cache entries: the degree is part of the profile key.
        let mut set = QuantifierSet::new(1);
        set.get_or_profile(&base, &hw, 0.5, &oracle, &noise);
        set.get_or_profile(&tp2, &hw, 0.5, &oracle, &noise);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn set_profiles_lazily_and_caches() {
        let mut set = QuantifierSet::new(1);
        assert!(set.is_empty());
        let oracle = AnalyticPerf::new();
        let noise = NoiseModel::off();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::a100_80g();
        let a = set
            .get_or_profile(&m, &hw, 1.0, &oracle, &noise)
            .prefill_s(512);
        assert_eq!(set.len(), 1);
        let b = set
            .get_or_profile(&m, &hw, 1.0, &oracle, &noise)
            .prefill_s(512);
        assert_eq!(set.len(), 1, "second lookup must hit the cache");
        assert_eq!(a, b);
        // A different share is a different profile.
        set.get_or_profile(&m, &hw, 0.5, &oracle, &noise);
        assert_eq!(set.len(), 2);
    }

    /// [`interp1`] and [`bracket`] as first written, collecting the grid
    /// into a `Vec<f64>` on every call.
    fn interp1_reference(samples: &[(u32, f64)], x: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        if samples.len() == 1 {
            return samples[0].1;
        }
        let xs: Vec<f64> = samples.iter().map(|&(l, _)| l as f64).collect();
        let (i0, i1) = bracket_f_reference(&xs, x);
        let (x0, y0) = (xs[i0], samples[i0].1);
        let (x1, y1) = (xs[i1], samples[i1].1);
        y0 + (y1 - y0) * frac(x0, x1, x)
    }

    fn bracket_reference(grid: &[u32], x: f64) -> (usize, usize) {
        let xs: Vec<f64> = grid.iter().map(|&g| g as f64).collect();
        bracket_f_reference(&xs, x)
    }

    fn bracket_f_reference(xs: &[f64], x: f64) -> (usize, usize) {
        if xs.len() == 1 {
            return (0, 0);
        }
        let mut i = 0;
        while i + 2 < xs.len() && xs[i + 1] < x {
            i += 1;
        }
        (i, i + 1)
    }

    #[test]
    fn interpolation_is_bit_equal_to_the_reference() {
        let samples = [(16u32, 0.011), (32, 0.019), (64, 0.037), (128, 0.08)];
        let one = [(512u32, 0.25)];
        let grid: Vec<u32> = samples.iter().map(|&(l, _)| l).collect();
        // Below the grid, on every grid point, between points, beyond it,
        // and a fractional query.
        let xs = [
            0.0, 1.0, 15.0, 16.0, 20.0, 32.0, 47.5, 64.0, 100.0, 128.0, 129.0, 1e6,
        ];
        for x in xs {
            assert_eq!(
                interp1(&samples, x).to_bits(),
                interp1_reference(&samples, x).to_bits(),
                "interp1 at {x}"
            );
            assert_eq!(
                bracket(&grid, x),
                bracket_reference(&grid, x),
                "bracket at {x}"
            );
            assert_eq!(
                interp1(&one, x).to_bits(),
                interp1_reference(&one, x).to_bits(),
                "one-sample interp1 at {x}"
            );
            assert_eq!(bracket(&[512], x), bracket_reference(&[512], x));
        }
        assert_eq!(
            interp1(&[], 3.0).to_bits(),
            interp1_reference(&[], 3.0).to_bits()
        );
        // The whole query surface of a real profile, on and off its grid.
        let q = profile(0.05);
        for len in (1..=5000u32).step_by(37).chain([16, 4096, 8192, 9000]) {
            assert_eq!(
                interp1(&q.prefill, len as f64).to_bits(),
                interp1_reference(&q.prefill, len as f64).to_bits(),
                "prefill grid at {len}"
            );
            assert_eq!(
                bracket(&q.lengths, len as f64),
                bracket_reference(&q.lengths, len as f64)
            );
        }
        for bs in 0..=300u32 {
            assert_eq!(
                bracket(&q.batches, bs as f64),
                bracket_reference(&q.batches, bs as f64)
            );
        }
    }

    /// A stand-in oracle on which INT4 prefills pay a dequantization
    /// overhead (the analytic model prices precision only in the decode
    /// weights pass).
    struct DequantPerf(AnalyticPerf);

    impl PerfOracle for DequantPerf {
        fn prefill_time(&self, model: &ModelSpec, hw: &HardwareSpec, len: u32, share: f64) -> f64 {
            let t = self.0.prefill_time(model, hw, len, share);
            match model.precision {
                Precision::Fp16 => t,
                Precision::Int4 => t * 1.25,
            }
        }

        fn decode_time(
            &self,
            model: &ModelSpec,
            hw: &HardwareSpec,
            batch: u32,
            ctx: u64,
            share: f64,
        ) -> f64 {
            self.0.decode_time(model, hw, batch, ctx, share)
        }
    }

    #[test]
    fn precision_is_part_of_the_profile_key() {
        let oracle = DequantPerf(AnalyticPerf::new());
        let noise = NoiseModel::off();
        let hw = HardwareSpec::a100_80g();
        let fp16 = ModelSpec::codestral_22b();
        let int4 = fp16.clone().with_precision(Precision::Int4);
        assert_eq!(fp16.name, int4.name);
        let mut set = QuantifierSet::new(1);
        let p_fp16 = set
            .get_or_profile(&fp16, &hw, 1.0, &oracle, &noise)
            .prefill_s(2048);
        let p_int4 = set
            .get_or_profile(&int4, &hw, 1.0, &oracle, &noise)
            .prefill_s(2048);
        assert_eq!(set.len(), 2, "same name, different precision");
        assert!(p_int4 > p_fp16, "{p_int4} vs {p_fp16}");
        let q_fp16 = set.get(&fp16, &hw, 1.0).expect("profiled");
        let q_int4 = set.get(&int4, &hw, 1.0).expect("profiled");
        assert_eq!(q_fp16.prefill_s(2048), p_fp16);
        assert_eq!(q_int4.prefill_s(2048), p_int4);
        assert!(q_int4.decode_s(8, 1024) < q_fp16.decode_s(8, 1024));
    }

    #[test]
    fn shares_that_print_alike_share_a_profile() {
        let oracle = AnalyticPerf::new();
        let noise = NoiseModel::off();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::a100_80g();
        let mut set = QuantifierSet::new(1);
        set.get_or_profile(&m, &hw, 0.5, &oracle, &noise);
        // 0.5 + 1e-9 renders as "0.500": same class, looked up both ways.
        assert!(set.get(&m, &hw, 0.5 + 1e-9).is_some());
        set.get_or_profile(&m, &hw, 0.5 + 1e-9, &oracle, &noise);
        assert_eq!(set.len(), 1);
        assert!(set.get(&m, &hw, 0.5004).is_some());
        assert!(set.get(&m, &hw, 0.501).is_none());
        assert!(set.get(&m, &HardwareSpec::xeon4_amx_32c(), 0.5).is_none());
    }
}
