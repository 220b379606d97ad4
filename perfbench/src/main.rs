//! `pcs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, a layer table, and a Chrome trace written to
//! `out/<workload>.trace.json` beside this package's manifest.

use pcs_perfbench::report::{self, Metric};
use pcs_perfbench::run::{self, Options};
use pcs_perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pcs-perfbench --workload <paper-200|scale-400|rolling-restart|red3-200> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&options) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    let metrics = if options.trace {
        let metrics = report::per_layer(&outcome);
        print_metrics(&metrics);
        print!("{}", report::layer_table(options.workload, &metrics));
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", options.workload.name()));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                report::chrome_trace(options.workload, &outcome).render(),
            )
        });
        match written {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        metrics
    } else {
        let metrics = report::end_to_end(&outcome);
        print_metrics(&metrics);
        println!(
            "decision_ms: {} samples over {} cells",
            report::decisions(&outcome).len(),
            outcome.cells
        );
        metrics
    };
    let failed = outcome.failures.len() as u64;
    println!(
        "{}",
        report::result_line(
            failed == 0,
            outcome.attempted,
            failed.min(outcome.attempted),
            &metrics
        )
    );
    ExitCode::SUCCESS
}
