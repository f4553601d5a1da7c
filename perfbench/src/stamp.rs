//! The run stamp: which code, on which host, in which mode.

use std::path::Path;
use std::process::Command;

use reecc_graph::fingerprint::Fnv1a;

use crate::Args;

/// JSON object naming the commit (or, outside a git checkout, an FNV-1a
/// fingerprint of every source file under `crates/`), the CPU model,
/// `nproc`, the rustc version, and the server's command line, which
/// carries its thread counts and solver mode.
pub fn stamp(args: &Args, server_args: &[String]) -> String {
    // Only the checkout's own repository: git would otherwise report an
    // enclosing one.
    let commit = Command::new("git")
        .args(["-C", &args.root.display().to_string(), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success() && args.root.join(".git").exists())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| {
            format!("src-fnv:{:016x}", source_fingerprint(&args.root.join("crates")))
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let server = server_args.iter().map(|a| json_str(a)).collect::<Vec<_>>().join(",");
    format!(
        r#"{{"commit":{},"cpu":{},"nproc":{nproc},"rustc":{},"workload":{},"seed":{},"seconds":{},"trace":{},"server_args":[{server}]}}"#,
        json_str(&commit),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    )
}

fn source_fingerprint(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h = Fnv1a::new();
    for f in files {
        h.update(f.strip_prefix(dir).unwrap_or(&f).to_string_lossy().as_bytes());
        h.update(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

pub fn json_str(s: &str) -> String {
    reecc_serve::json::Json::Str(s.to_string()).render()
}
