//! The repository benchmark: three workloads driven through the public API
//! by one closed-loop client thread, answers checked, end-to-end metrics
//! printed by default and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload xmark-logic --seed 7 --seconds 30 --trace 0
//! ```
//!
//! Workloads, metrics and the steadiness study are described in
//! `perfbench/STUDY.md`.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod arxiv;
mod client;
mod live;
mod logic;
mod measure;
mod trace;

use std::process::ExitCode;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Nominal run length.  Operation counts are fixed per second of it, so
    /// the work a run does never depends on how fast the host is.
    pub seconds: u64,
    pub trace: bool,
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the figure was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (an error or a wrong answer).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but left out of the result line
    /// (untraced runs only).
    pub figures: Vec<Metric>,
    /// `key: value` lines printed before the result.
    pub manifest: Vec<(String, String)>,
    /// Lines of the per-layer table (traced runs only).
    pub table: Vec<String>,
}

impl Report {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.manifest.push((key.to_string(), value.to_string()));
    }
}

pub const WORKLOADS: [&str; 3] = ["arxiv-fig9", "xmark-logic", "xmark-live"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "arxiv-fig9" => arxiv::run(&args),
        "xmark-logic" => logic::run(&args),
        _ => live::run(&args),
    };

    println!(
        "# workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (k, v) in &report.manifest {
        println!("# {k}: {v}");
    }
    for line in &report.table {
        println!("{line}");
    }
    for (kind, list) in [("figure", &report.figures), ("metric", &report.metrics)] {
        for m in list {
            println!(
                "# {kind} {:<28} {:>14.4} {:<8} samples {}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# error_rate {error_rate} ({} of {} operations failed)",
        report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.attempted > 0;
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed their correctness gate",
            report.failed, report.attempted
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
