//! `slbench` — the repository benchmark's command.
//!
//! ```text
//! slbench --workload <zoo_overload|fleet_day|chat_churn> --seed <n>
//!         --seconds <n> --trace <0|1> [--spans <file>]
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end host metrics, `--trace 1`
//! the simulated and per-layer ones; `--spans` also writes the traced run's
//! callback spans as tab-separated text. Exit status: 0 on a correct run,
//! 1 when the correctness gate fails, 2 on a usage error.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use slbench::catalog::{self, Metric};
use slbench::gate::fingerprint_hex;
use slbench::measure::{self, Report, PAPER_SLO_MET_VS_SLLM};
use slbench::workloads::{Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

const USAGE: &str = "usage: slbench --workload <zoo_overload|fleet_day|chat_churn> --seed <n> \
                     --seconds <n> --trace <0|1> [--spans <file>]";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    // detlint::allow(D004, "command-line intake of the benchmark; the simulation sees only the parsed seed")
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "slbench {w} seed={} seconds={} trace={} system={:?}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.system()
    );
    let (mut report, catalogue) = if args.trace {
        let (report, spans) = measure::traced(w, args.seed, Size::Full);
        if let Some(path) = &args.spans {
            let written = File::create(path).and_then(|f| {
                let mut out = BufWriter::new(f);
                spans.write_to(&mut out)?;
                out.flush()
            });
            match written {
                Ok(()) => println!("spans: {} written to {path}", spans.len()),
                Err(e) => {
                    eprintln!("slbench: writing spans to {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (report, catalog::per_layer())
    } else {
        (
            measure::end_to_end(w, args.seed, args.seconds, Size::Full),
            catalog::end_to_end(),
        )
    };
    for m in &catalogue {
        if !report.get(&m.name).is_some_and(f64::is_finite) {
            report
                .errors
                .push(format!("metric {} has no finite value", m.name));
        }
    }
    print_report(w, &report, &catalogue);
    let correct = report.errors.is_empty();
    println!("{}", result_json(&report, &catalogue, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_report(w: Workload, r: &Report, catalogue: &[Metric]) {
    for t in &r.traces {
        let runs: Vec<String> = t.run_s.iter().map(|s| format!("{s:.3}")).collect();
        let sllm = t
            .sllm_fingerprint
            .map(|fp| format!(" sllm_fingerprint={}", fingerprint_hex(fp)))
            .unwrap_or_default();
        println!(
            "trace seed={} requests={} fingerprint={}{sllm} run_s=[{}]",
            t.seed,
            t.requests,
            fingerprint_hex(t.fingerprint),
            runs.join(", ")
        );
    }
    if r.ttft_samples > 0 {
        println!(
            "latency samples: ttft={} tpot={}",
            r.ttft_samples, r.tpot_samples
        );
    }
    println!("{:<44} {:>16}  {:<10} better", "metric", "value", "unit");
    for m in catalogue {
        print_metric(m, r.get(&m.name).unwrap_or(f64::NAN));
    }
    // Simulated metrics computed along the way but reported (in the JSON)
    // only by the traced run.
    let extra: Vec<Metric> = catalog::simulated()
        .into_iter()
        .filter(|m| !catalogue.contains(m) && r.get(&m.name).is_some())
        .collect();
    if !extra.is_empty() {
        println!("simulated, exact at this seed, unbounded (JSON with --trace 1):");
        for m in &extra {
            print_metric(m, r.get(&m.name).unwrap_or(f64::NAN));
        }
    }
    if w == Workload::ZooOverload {
        if let Some(ratio) = r.get("slo_met_vs_sllm") {
            let (lo, hi) = PAPER_SLO_MET_VS_SLLM;
            println!(
                "[paper] SLINFER/sllm SLO-met at 128 models: paper {lo:.2}-{hi:.2}, \
                 this simulator {ratio:.3} (unvalidated model; known gap)"
            );
        }
    }
    if r.errors.is_empty() {
        println!("gate: pass");
    } else {
        for e in &r.errors {
            println!("gate: FAIL {e}");
        }
    }
}

fn print_metric(m: &Metric, v: f64) {
    let moves = if m.moves.is_empty() {
        String::new()
    } else {
        format!("  moves {}", m.moves.join(","))
    };
    println!(
        "{:<44} {:>16.6}  {:<10} {}{moves}",
        m.name,
        v,
        m.unit,
        m.better.as_str()
    );
}

/// The machine-readable result line (every catalogue metric is present
/// and finite by the time this runs).
fn result_json(r: &Report, catalogue: &[Metric], correct: bool) -> String {
    let fields: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = r.get(&m.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        fields.join(", ")
    )
}
