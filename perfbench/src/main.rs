//! `ntx-perfbench`: the repository's benchmark.
//!
//! ```text
//! ntx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API of `ntx-runtime` and
//! `ntx-serve`, checks the program's results against ledgers kept apart
//! from it, and prints one JSON line last: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). The traced run also writes the
//! spans it kept to `.perfbench/spans-<workload>-<seed>.tsv`. Exits 1 when
//! a check fails or an operation failed, 2 on a usage error. See
//! `README.md` beside this package for the workloads and metrics.

mod async_hot;
mod durable;
mod ledger;
mod report;
mod serve;
mod sync;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads.
const WORKLOADS: [&str; 3] = ["serve_pipelined", "async_hot", "durable_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => traced = num()? != 0,
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
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ntx-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (seed, secs, traced) = (args.seed, args.seconds, args.traced);
    let out = match args.workload.as_str() {
        "serve_pipelined" => serve::run(seed, secs, traced),
        "async_hot" => async_hot::run(seed, secs, traced),
        _ => durable::run(seed, secs, traced),
    };
    let mut out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &out.tracer {
        if t.too_many_failures() {
            let (n, of) = (t.failures, t.txns);
            out.checks
                .fail(format!("{n} of {of} transactions failed span reconciliation"));
        }
    }
    for f in out.checks.failures() {
        eprintln!("check failed: {f}");
    }
    if let Some(t) = &out.tracer {
        let path = PathBuf::from(".perfbench").join(format!("spans-{}-{seed}.tsv", args.workload));
        if let Err(e) = t.write_tsv(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match report::json_line(&out, traced) {
        Ok(line) => {
            println!("{line}");
            if out.checks.ok() && out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload async_hot --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("async_hot", 7, 3, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload async_hot").is_err());
        assert!(args("--workload async_hot --seed x").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names = report::E2E.iter().chain(report::LAYER.iter());
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, report::E2E.len() + report::LAYER.len());
        for rest in json.split("\"name\": \"").skip(1) {
            let (name, tail) = rest.split_once('"').expect("closing quote");
            if tail.starts_with(", \"why\"") {
                assert!(WORKLOADS.contains(&name), "unknown workload {name}");
            }
        }
    }

    #[test]
    fn lints_clean_under_the_workspace_lint() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let report = ntx_lint::lint_crate(root).expect("lint the benchmark sources");
        assert!(report.violations.is_empty(), "{report}");
        assert!(report.files >= 8);
    }
}
