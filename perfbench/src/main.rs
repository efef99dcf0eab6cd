//! `perfbench`: the end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload xml-edit|ltree-stream|label-server --seed N
//!           --seconds S --trace 0|1 [--fault labels|order|recovery]
//! ```
//!
//! `--trace 0` runs one workload untraced and prints its end-to-end
//! metrics. `--trace 1` runs every workload with spans around each layer
//! (S/3 seconds each) and prints the per-layer metrics; each workload's
//! end-to-end figures under tracing go to standard error, which is how the
//! tracing overhead is read. `--fault` injects a defect that one of the
//! correctness checks must catch. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! README.md for the workloads, metrics and checks.

#![forbid(unsafe_code)]

mod label_server;
mod layer;
mod ltree_stream;
mod model;
mod report;
mod xml_edit;

use std::process::ExitCode;

use layer::Fault;
use report::{result_line, Metrics, Recorder};

/// How one run is driven.
pub struct Settings {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether spans wrap each layer.
    pub trace: bool,
    /// A defect to inject, if any.
    pub fault: Option<Fault>,
}

const WORKLOADS: [&str; 3] = ["xml-edit", "ltree-stream", "label-server"];

type Outcome = Result<(Recorder, Metrics), String>;

fn run_workload(name: &str, s: &Settings, layers: &mut Metrics) -> Outcome {
    match name {
        "xml-edit" => xml_edit::run(s, layers),
        "ltree-stream" => ltree_stream::run(s, layers),
        _ => label_server::run(s, layers),
    }
}

fn parse_args() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut s = Settings {
        seed: 1,
        seconds: 10.0,
        trace: false,
        fault: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => s.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                s.seconds = value.parse().map_err(|_| bad())?;
                if !(s.seconds > 0.0 && s.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--fault" => s.fault = Some(Fault::parse(value).ok_or_else(bad)?),
            _ => return Err(bad()),
        }
    }
    let workload = workload.ok_or(format!("--workload must be one of {WORKLOADS:?}"))?;
    Ok((workload, s))
}

fn print_metrics(title: &str, m: &Metrics) {
    eprintln!("{title}");
    for (name, v, unit) in &m.0 {
        eprintln!("  {name:<32} {v:>14.4} {unit}");
    }
}

fn main() -> ExitCode {
    let (workload, mut s) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if s.trace {
        s.seconds /= WORKLOADS.len() as f64;
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut layers = Metrics::default();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut e2e = Metrics::default();
    for name in names {
        layer::clear();
        let (rec, metrics) = match run_workload(name, &s, &mut layers) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {name} could not run: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += rec.attempted;
        failed += rec.failed;
        for f in &rec.failures {
            eprintln!("{name}: check failed: {f}");
        }
        for (check, n) in &rec.failed_checks {
            eprintln!("{name}: check `{check}` failed {n} times");
            correct = false;
        }
        eprintln!(
            "{name}: attempted {}, failed {}, {} edits, {} queries",
            rec.attempted,
            rec.failed,
            rec.edits.len(),
            rec.queries.len()
        );
        let title = if s.trace { " (traced)" } else { "" };
        print_metrics(&format!("{name}{title}"), &metrics);
        e2e = metrics;
    }
    let out = if s.trace {
        print_metrics("per-layer", &layers);
        layers
    } else {
        e2e
    };
    println!("{}", result_line(correct, attempted, failed, &out));
    ExitCode::SUCCESS
}
