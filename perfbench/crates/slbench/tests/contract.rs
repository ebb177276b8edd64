//! Tests of the benchmark itself: its metric catalogue, its agreement with
//! `BENCHMARK.json`, its workload constructors, and its tracer's transparency.

use std::collections::BTreeSet;

use slbench::catalog::{self, Metric};
use slbench::gate::{check_replay, fingerprint};
use slbench::measure::{self, trace_seed};
use slbench::run::{generate, replay, replay_traced};
use slbench::tracer::{Callback, Spans};
use slbench::workloads::{Size, System, Workload};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

fn all_metrics() -> Vec<Metric> {
    let mut all = catalog::end_to_end();
    all.extend(catalog::per_layer());
    all
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for m in all_metrics() {
        assert!(catalog::valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
    }
    assert!(!catalog::valid_name(""));
    assert!(!catalog::valid_name(".x"));
    assert!(!catalog::valid_name("a b"));
    assert!(catalog::valid_name("core.on_timer.us_p99"));
}

#[test]
fn every_metric_has_a_unit_and_a_direction() {
    let e2e: BTreeSet<String> = catalog::end_to_end()
        .into_iter()
        .chain(catalog::simulated())
        .map(|m| m.name)
        .collect();
    for m in all_metrics() {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} on {}",
            m.unit,
            m.name
        );
        assert!(["lower", "higher"].contains(&m.better.as_str()));
        for target in m.moves {
            assert!(
                e2e.contains(*target),
                "{} moves unknown metric {target}",
                m.name
            );
        }
    }
    for m in catalog::per_layer() {
        assert!(
            !m.moves.is_empty() || e2e.contains(&m.name) || m.name == "trace.overhead_share",
            "per-layer metric {} names no end-to-end metric it moves",
            m.name
        );
    }
    assert!(e2e.contains("setup_s"));
}

/// `BENCHMARK.json` lists exactly the catalogue's metrics, with the same
/// units and directions, and exactly the three workloads.
#[test]
fn benchmark_json_matches_the_catalogue() {
    for m in all_metrics() {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks workload {w}"
        );
    }
    let names = BENCHMARK_JSON.matches("\"name\": ").count();
    assert_eq!(names, all_metrics().len() + Workload::ALL.len());
}

#[test]
fn shrunken_workloads_build_valid_scenarios() {
    for w in Workload::ALL {
        let g = generate(w, 7, Size::Shrunk);
        let sc = &g.scenario;
        let nodes = sc.cluster().nodes.len();
        assert!(nodes > 0 && !sc.models().is_empty(), "{w}: empty fleet");
        assert!(!g.trace.is_empty(), "{w}: empty trace");
        for (i, r) in g.trace.requests.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i, "{w}: ids must be dense");
            assert!(
                (r.model.0 as usize) < sc.models().len(),
                "{w}: unknown model"
            );
        }
        assert!(g
            .trace
            .requests
            .windows(2)
            .all(|p| p[0].arrival <= p[1].arrival));
        for (_, ev) in sc.events() {
            if let cluster::ClusterEvent::NodeFail(n) | cluster::ClusterEvent::NodeDrain(n) = ev {
                assert!(
                    (n.0 as usize) < nodes,
                    "{w}: event on a node outside the fleet"
                );
            }
        }
        let full = generate(w, 7, Size::Full);
        assert!(
            full.trace.len() > 10 * g.trace.len(),
            "{w}: shrunk is not smaller"
        );
        let r = replay(&g, w.system());
        let errs = check_replay(&r.metrics, g.trace.len(), w.system() == System::Slinfer);
        assert!(errs.is_empty(), "{w}: {errs:?}");
    }
}

#[test]
fn traced_and_untraced_fingerprints_are_equal() {
    for w in Workload::ALL {
        let g = generate(w, 11, Size::Shrunk);
        for system in [System::Slinfer, System::Sllm] {
            let plain = replay(&g, system);
            let mut spans = Spans::default();
            let traced = replay_traced(&g, system, &mut spans);
            assert_eq!(
                fingerprint(&plain.metrics),
                fingerprint(&traced.metrics),
                "{w} under {system:?}: tracing changed the simulation"
            );
            let arrivals = spans.of(Callback::OnArrival);
            assert!(
                arrivals.len() >= g.trace.len(),
                "{w}: an arrival went untraced"
            );
            assert!(arrivals
                .iter()
                .all(|s| s.req != slbench::tracer::NO_REQUEST));
        }
    }
}

#[test]
fn runs_report_every_catalogue_metric() {
    let w = Workload::ChatChurn;
    let rep = measure::end_to_end(w, 3, 0.0, Size::Shrunk);
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    assert_eq!(rep.traces.len(), w.pool());
    for m in catalog::end_to_end() {
        let v = rep.get(&m.name).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
    let (rep, spans) = measure::traced(w, 3, Size::Shrunk);
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    assert!(!spans.is_empty());
    for m in catalog::per_layer() {
        let v = rep.get(&m.name).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
}

#[test]
fn pool_seeds_start_at_the_run_seed_and_are_distinct() {
    for seed in [0, 7, 11, u64::MAX] {
        assert_eq!(trace_seed(seed, 0), seed);
        let seeds: BTreeSet<u64> = (0..8).map(|i| trace_seed(seed, i)).collect();
        assert_eq!(seeds.len(), 8);
    }
    // Pools of neighbouring run seeds share no trace.
    let a: BTreeSet<u64> = (0..8).map(|i| trace_seed(7, i)).collect();
    let b: BTreeSet<u64> = (0..8).map(|i| trace_seed(8, i)).collect();
    assert!(a.is_disjoint(&b));
}
