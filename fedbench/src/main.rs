//! `fedbench` — the end-to-end FedMart benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path fedbench/Cargo.toml -- \
//!     --workload analytic --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds FedMart, drives one workload (`analytic`, `lookup` or
//! `serving`) for `--seconds` of measured time, checks every answer
//! against an independent reference, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod analytic;
mod layers;
mod lookup;
mod measure;
mod reference;
mod rng;
mod serving;
mod stats;

use gis::datagen::fedmart::FedMartSizes;
use gis::prelude::*;
use measure::{
    analyze, build, closed_loop, end_to_end, per_layer, repeat_setup, Metric, Op, Phase,
};
use measure::{RuntimeFigures, SetupSample};
use reference::Reference;
use rng::Rng;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: fedbench --workload analytic|lookup|serving --seed <n> --seconds <s> --trace 0|1";

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines for standard error: per-template latency
    /// and the failures no known fault explains.
    notes: Vec<String>,
}

impl Report {
    fn new(phases: &[&Phase], metrics: Vec<Metric>) -> Report {
        let mut notes = Vec::new();
        for (i, p) in phases.iter().enumerate() {
            for (template, n, p50, p90) in p.template_summary() {
                notes.push(format!(
                    "phase {i} {template:<26} n={n:<6} p50={p50:.3}ms p90={p90:.3}ms"
                ));
            }
            notes.extend(
                p.unexpected
                    .iter()
                    .map(|u| format!("unexpected failure: {u}")),
            );
        }
        Report {
            correct: phases.iter().all(|p| p.unexpected.is_empty()),
            attempted: phases.iter().map(|p| p.attempted).sum(),
            failed: phases.iter().map(|p| p.failed).sum(),
            metrics,
            notes,
        }
    }

    fn to_json(&self) -> std::result::Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for &(name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Set-up of the single-client workloads: FedMart at `scale`, then
/// `ANALYZE`.
fn setup_fedmart(scale: f64) -> Result<(FedMart, SetupSample)> {
    let started = Instant::now();
    let fm = build(scale)?;
    let build_s = started.elapsed().as_secs_f64();
    let analyze_s = analyze(&fm.federation)?;
    let sample = SetupSample {
        build_s,
        analyze_s,
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok((fm, sample))
}

/// `analytic` and `lookup`: one client, closed loop, no runtime.
fn run_single(
    args: &Args,
    scale: f64,
    round: fn(&mut Rng, &FedMartSizes) -> Vec<Op>,
) -> Result<Report> {
    let (fm, setups) = repeat_setup(|| setup_fedmart(scale))?;
    let fed = &fm.federation;
    let reference = Reference::fetch(fed, &fm.sizes)?;
    let mut rng = rng::stream(args.seed, 0);
    let mut next_round = || round(&mut rng, &fm.sizes);
    if !args.trace {
        let phase = closed_loop(fed, &reference, &mut next_round, args.seconds, false);
        let metrics = end_to_end(&phase, &setups);
        return Ok(Report::new(&[&phase], metrics));
    }
    let untraced = closed_loop(fed, &reference, &mut next_round, args.seconds / 2.0, false);
    let traced = closed_loop(fed, &reference, &mut next_round, args.seconds / 2.0, true);
    let metrics = per_layer(&untraced, &traced, &setups, fed, RuntimeFigures::default());
    Ok(Report::new(&[&untraced, &traced], metrics))
}

fn run(args: &Args) -> Result<Report> {
    match args.workload.as_str() {
        "analytic" => run_single(args, analytic::SCALE, |rng, _| analytic::round(rng)),
        "lookup" => run_single(args, lookup::SCALE, lookup::round),
        "serving" => serving::run(args.seed, args.seconds, args.trace),
        other => Err(GisError::Internal(format!(
            "unknown workload '{other}'\n{USAGE}"
        ))),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for &(name, value, unit) in &report.metrics {
        eprintln!("{name:<34} {value:>14.4} {unit}");
    }
    eprintln!(
        "attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    match report.to_json() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(1);
        }
    }
}
