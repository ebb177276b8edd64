//! Property-based tests for the simulation spine.

use proptest::prelude::*;

use simcore::dist::{discrete, exponential, gamma, lognormal, pareto, zipf_weights};
use simcore::events::EventQueue;
use simcore::rng::SimRng;
use simcore::stats::{Summary, TimeWeighted};
use simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The original `BinaryHeap`-backed event queue, kept as the shadow
/// reference the calendar queue must match: pops in `(time, seq)` order,
/// with O(log n) push/pop. Events are `u64` ids here, which is all the
/// equivalence properties push.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, event: u64) {
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((at, _, event))| (at, event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

proptest! {
    #[test]
    fn time_addition_is_monotone(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(a);
        let t2 = t + SimDuration::from_micros(d);
        prop_assert!(t2 >= t);
        prop_assert_eq!(t2.since(t), SimDuration::from_micros(d));
    }

    #[test]
    fn signed_difference_is_antisymmetric(a in 0u64..1 << 50, b in 0u64..1 << 50) {
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        let d1 = ta.signed_secs_since(tb);
        let d2 = tb.signed_secs_since(ta);
        prop_assert!((d1 + d2).abs() < 1e-9);
    }

    #[test]
    fn duration_roundtrip_secs(us in 0u64..1 << 40) {
        let d = SimDuration::from_micros(us);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        // f64 has 53 mantissa bits; round-trip is near-exact in this range.
        let diff = back.as_micros().abs_diff(us);
        prop_assert!(diff <= 1, "{us} -> {}", back.as_micros());
    }

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_fifo_at_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..n {
            q.push(t, i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Shadow equivalence: the calendar queue and the reference heap queue
    /// must produce bit-equal `(time, event)` streams for any interleaving
    /// of pushes and pops, including same-timestamp floods (the FIFO
    /// tie-break) and far-future outliers (the direct-search jump).
    #[test]
    fn calendar_queue_matches_heap_shadow(
        ops in prop::collection::vec(
            // Repeated arms stand in for weights (the harness picks arms
            // uniformly): pushes dominate so the queues actually fill up.
            // Mixed magnitudes: dense low times force same-bucket pileups,
            // huge times force the resize and direct-jump paths.
            prop_oneof![
                (0u64..10_000).prop_map(Some),
                (0u64..10_000).prop_map(Some),
                (0u64..10_000).prop_map(Some),
                (0u64..100_000_000).prop_map(Some),
                (0u64..100_000_000).prop_map(Some),
                Just(Some(u64::MAX)),
                Just(None), // pop
                Just(None), // pop
                Just(None), // pop
            ],
            1..400,
        ),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut id = 0u64;
        for op in ops {
            match op {
                Some(t) => {
                    let at = SimTime::from_micros(t);
                    cal.push(at, id);
                    heap.push(at, id);
                    id += 1;
                }
                None => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                    prop_assert_eq!(cal.len(), heap.len());
                }
            }
        }
        // Drain both to the end: every remaining event must match too.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Same-timestamp floods interleaved with pops: FIFO order must hold
    /// across partial drains on both implementations.
    #[test]
    fn calendar_queue_fifo_flood_matches_heap(
        floods in prop::collection::vec((0u64..50, 1usize..40), 1..20),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut id = 0u64;
        for (t, n) in floods {
            let at = SimTime::from_millis(t);
            for _ in 0..n {
                cal.push(at, id);
                heap.push(at, id);
                id += 1;
            }
            // Partial drain between floods.
            for _ in 0..n / 2 {
                prop_assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), label in any::<u64>()) {
        let mut a = SimRng::new(seed).split(label);
        let mut b = SimRng::new(seed).split(label);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(n) < n);
        }
    }

    #[test]
    fn distributions_are_positive(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        prop_assert!(exponential(&mut rng, 2.0) >= 0.0);
        prop_assert!(lognormal(&mut rng, 100.0, 1.0) > 0.0);
        prop_assert!(pareto(&mut rng, 1.5, 1.1) >= 1.5);
        prop_assert!(gamma(&mut rng, 0.7, 2.0) >= 0.0);
        prop_assert!(gamma(&mut rng, 3.0, 2.0) >= 0.0);
    }

    #[test]
    fn zipf_sums_to_one(n in 1usize..500, s in 0.1f64..2.5) {
        let w = zipf_weights(n, s);
        prop_assert_eq!(w.len(), n);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn discrete_index_in_bounds(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.01f64..10.0, 1..50),
    ) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(discrete(&mut rng, &weights) < weights.len());
        }
    }

    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s: Summary = xs.into_iter().collect();
        let p25 = s.percentile(25.0);
        let p50 = s.percentile(50.0);
        let p99 = s.percentile(99.0);
        prop_assert!(p25 <= p50 && p50 <= p99);
        prop_assert!(s.min() <= p25 && p99 <= s.max());
    }

    #[test]
    fn cdf_bounds(xs in prop::collection::vec(0f64..1e6, 2..200)) {
        let mut s: Summary = xs.into_iter().collect();
        let cdf = s.cdf(20);
        for w in cdf.points.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
            prop_assert!(w[1].0 >= w[0].0);
        }
        prop_assert!((cdf.points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_between_extremes(
        vals in prop::collection::vec(0f64..100.0, 1..50),
    ) {
        let mut tw = TimeWeighted::new();
        for (i, &v) in vals.iter().enumerate() {
            tw.record(i as f64, v);
        }
        let mean = tw.finish(vals.len() as f64);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        prop_assert!((tw.peak() - hi).abs() < 1e-9);
    }
}
