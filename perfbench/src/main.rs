//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --reecc <server binary> --root <checkout> \
//!           --workload serve-read|serve-write|optimize-jobs \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the release `reecc serve` binary as a child process, drives one
//! seeded workload at it over loopback TCP, checks the answers, and
//! prints one JSON result object as the last line of stdout. With
//! `--trace 0` the object carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a separate traced run, gathered
//! from outside the program (response fields, `stats`, job events, and
//! timed calls into each crate's public functions). See README.md for
//! the workloads, the metrics and what each layer should move.

mod client;
mod gen;
mod layers;
mod proc;
mod stamp;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reecc: PathBuf,
    pub root: PathBuf,
}

/// Metrics of one run, by name: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a workload hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Per-run diagnostics (not metrics): steal, lateness, sample counts.
    pub diagnostics: Vec<(String, String)>,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// The server's command line (thread counts, solver mode).
    pub server_args: Vec<String>,
}

/// Progress on stderr, with seconds since the process started.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: [{t:7.2}s] {what}");
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace,
        reecc: PathBuf::from(get("reecc")?),
        root: PathBuf::from(get("root")?),
    })
}

fn render_result(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (value, unit))| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    progress(&format!("{} seed {} for {} s", args.workload, args.seed, args.seconds));
    let result = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for failure in &result.check_failures {
        eprintln!("perfbench: output check failed: {failure}");
    }
    // Stamp and diagnostics first, result object last.
    let stamp = stamp::stamp(&args, &result.server_args);
    let diag: Vec<String> =
        result.diagnostics.iter().map(|(k, v)| format!(r#""{k}":{v}"#)).collect();
    println!(r#"{{"stamp":{stamp},"diagnostics":{{{}}}}}"#, diag.join(","));
    println!("{}", render_result(&result));
    ExitCode::SUCCESS
}
