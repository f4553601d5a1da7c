//! The three workloads and their output checks.
//!
//! | workload | server | stream |
//! |---|---|---|
//! | `serve-read` | warm (`--snapshot`), 1 worker | Poisson `ecc` (Zipf sources) + `res` |
//! | `serve-write` | warm, 1 worker, WAL | fixed-rate add/remove-edge + Poisson `ecc` / `whatif-edge` |
//! | `optimize-jobs` | cold (edge list), 1 worker, 1 job runner | a fixed list of `optimize-submit` jobs |
//!
//! Every workload reports the same end-to-end metrics (`setup_s`,
//! `cpu_ms_per_op`, `peak_rss_mb`) and the same client figures
//! (`client.op_p50_ms` / `client.op_tail_ms` for its primary operation,
//! `client.side_p50_ms` for its secondary one); README.md has the table
//! of what each means per workload.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use reecc_core::update::solve_edge_potentials_with;
use reecc_core::{CgOptions, ChebyshevConfig, Precision, Preconditioner, SketchParams};
use reecc_graph::{Edge, Graph};
use reecc_linalg::cg::CgWorkspace;
use reecc_serve::json::Json;
use reecc_serve::SketchSnapshot;

use crate::client::{lateness_us, open_loop, Reply};
use crate::gen::{self, JobPlan, Op, Planned, WriteMix};
use crate::proc::{steal_seconds, DrainReport, Server};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::Trace;
use crate::{layers, Args, Metrics, RunResult};

/// Server starts per run; `setup_s` is the median of their set-up times.
const SETUPS: usize = 5;
/// Load connections: at most this many requests are in the pool at once.
const CONNS: usize = 8;
/// Coalescing window passed explicitly to every server.
const BATCH_WINDOW: usize = 8;
/// Solver mode of every sketch build (prepared snapshots, cold starts,
/// re-sketches): mixed-precision block-CG with the Chebyshev
/// preconditioner.
const MODE: [&str; 4] = ["--precision", "mixed", "--precond", "cheby"];

/// `serve-read`: more nodes than the 4 096-entry result cache holds.
const READ_N: usize = 6000;
const READ_EPS: f64 = 0.3;
/// Offered load, requests per second: well below one worker's capacity
/// (~0.2 ms of server CPU per request), so host steal does not turn
/// into queueing.
const READ_RATE: f64 = 1000.0;
const READ_RES_SHARE: f64 = 0.2;
/// `ecc` tail percentile. p99 swings run to run with host scheduling
/// stalls on small VMs; p90 holds steady.
const READ_TAIL: f64 = 0.9;

/// `serve-write`.
const WRITE_N: usize = 2000;
const WRITE_EPS: f64 = 0.5;
const WRITE_MIX: WriteMix = WriteMix {
    mutation_rate: 15.0,
    ecc_rate: 80.0,
    whatif_rate: 4.0,
    max_added: 8,
    budget: 40.0,
    pause_s: 1.5,
};

/// `optimize-jobs`.
const JOBS_N: usize = 800;
const JOBS_SERVER_EPS: f64 = 0.5;
/// The fixed job list: optimizer, k, job ε. Most iterations are
/// FARMINRECC re-sketches (~0.3 s each), so the iteration p50 and p80 both
/// fall inside that band; the nine cheap CENMINRECC scans and the two
/// hull-guided iterations (~1.6 s) sit below and above it.
const JOB_LIST: [(&str, usize, f64); 4] = [
    ("cenminrecc", 10, 0.4),
    ("farminrecc", 40, 0.5),
    ("chminrecc", 1, 0.5),
    ("minrecc", 1, 0.5),
];

/// Average degree of every generated graph.
const AVG_DEGREE: usize = 6;

pub fn run(args: &Args) -> Result<RunResult, String> {
    let work = args.root.join(".bench_work");
    let run_dir = work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let result = match args.workload.as_str() {
        "serve-read" => serve_read(args, &work, &run_dir),
        "serve-write" => serve_write(args, &work, &run_dir),
        "optimize-jobs" => optimize_jobs(args, &work, &run_dir),
        other => {
            Err(format!("unknown workload {other:?} (serve-read, serve-write, optimize-jobs)"))
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// Inputs generated (and snapshots prepared) once per seed, before any
/// timing.
struct Prepared {
    graph_path: PathBuf,
    snap_path: Option<PathBuf>,
    text: String,
    graph: Graph,
}

fn prepare(
    args: &Args,
    work: &Path,
    name: &str,
    n: usize,
    eps: Option<f64>,
) -> Result<Prepared, String> {
    let dir = work.join("inputs").join(format!("{name}-{}", args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let graph_path = dir.join("graph.txt");
    let text = gen::graph_text(n, AVG_DEGREE, args.seed);
    let graph = gen::parse_graph(&text);
    if std::fs::read_to_string(&graph_path).ok().as_deref() != Some(text.as_str()) {
        std::fs::write(&graph_path, &text).map_err(|e| e.to_string())?;
    }
    let Some(eps) = eps else {
        return Ok(Prepared { graph_path, snap_path: None, text, graph });
    };
    // The snapshot is built by the program under test; the key ties a
    // cached one to that exact binary and build mode.
    let snap_path = dir.join("snap.bin");
    let key_path = dir.join("snap.key");
    let meta = std::fs::metadata(&args.reecc).map_err(|e| e.to_string())?;
    let key = format!(
        "{} {:?} eps={eps} seed={} {}",
        meta.len(),
        meta.modified().ok(),
        args.seed,
        MODE.join(" ")
    );
    if std::fs::read_to_string(&key_path).ok().as_deref() != Some(key.as_str())
        || !snap_path.exists()
    {
        let status = Command::new(&args.reecc)
            .arg("sketch-build")
            .arg(&graph_path)
            .arg("--out")
            .arg(&snap_path)
            .args(["--eps", &eps.to_string(), "--seed", &args.seed.to_string()])
            .args(MODE)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("sketch-build: {e}"))?;
        if !status.success() {
            return Err(format!("sketch-build failed: {status}"));
        }
        std::fs::write(&key_path, &key).map_err(|e| e.to_string())?;
    }
    Ok(Prepared { graph_path, snap_path: Some(snap_path), text, graph })
}

/// The solver parameters `reecc serve` derives from `--eps` and [`MODE`].
pub fn server_params(eps: f64) -> SketchParams {
    let mut p = SketchParams::with_epsilon(eps);
    p.precision = Precision::Mixed;
    p.cg.preconditioner = Preconditioner::Chebyshev(ChebyshevConfig::default());
    p
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

/// Every start's set-up cost: server CPU seconds from spawn to the first
/// answered request, and the wall-clock time of the same interval.
#[derive(Debug, Default)]
struct Setups {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

/// Start the server [`SETUPS`] times (each with its own fresh
/// directories from `args_for`) and keep the last one.
fn start_servers(
    reecc: &Path,
    args_for: impl Fn(usize) -> Vec<String>,
) -> Result<(Server, Setups, Vec<String>), String> {
    let mut setups = Setups::default();
    for i in 0..SETUPS {
        let a = args_for(i);
        let server = Server::start(reecc, &a)?;
        setups.cpu_s.push(server.setup_cpu_s);
        setups.wall_s.push(server.setup.as_secs_f64());
        if i + 1 == SETUPS {
            return Ok((server, setups, a));
        }
        server.stop()?;
    }
    unreachable!("SETUPS > 0")
}

/// `stats` as a parsed object.
fn stats(server: &Server) -> Result<Json, String> {
    let line = server.request(r#"{"op":"stats","id":0}"#)?;
    Json::parse(&line).map_err(|e| format!("stats reply: {e}"))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Latencies (ms) of the matching ops.
fn latencies(phase: &Phase, plan: &[Planned], keep: impl Fn(Op) -> bool) -> Vec<f64> {
    plan.iter()
        .zip(&phase.replies)
        .filter(|(p, _)| keep(p.op))
        .map(|(_, r)| r.latency_ms())
        .collect()
}

fn pct(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| {
        format!("{what}: {} samples, p{} needs {}", samples.len(), q * 100.0, samples_needed(q))
    })
}

/// Per-layer percentile: falls back to the maximum when the sample is too
/// small for the requested rank (diagnostics carry the counts).
fn pct_or_max(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or_else(|| samples.iter().copied().fold(0.0, f64::max))
}

/// Per-layer metrics every serving workload derives from its traced load
/// phase and the `stats` delta across it.
fn serving_layers(m: &mut Metrics, trace: &Trace, before: &Json, after: &Json) {
    let mut transport: Vec<f64> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent.is_none() && s.name.starts_with("client.") {
            transport.push(trace.self_time_ns(i) as f64 / 1e3);
        }
    }
    let queue = trace.durations_us("serve.pool.queue");
    let compute = trace.durations_us("serve.pool.compute");
    let d = |k: &str| num(after, k) - num(before, k);
    let (hit_ratio, occupancy) = cache_and_batching(before, after);
    m.insert("serve.server.transport_us_p50".into(), (pct_or_max(&transport, 0.5), "us"));
    m.insert("serve.pool.queue_wait_us_p50".into(), (pct_or_max(&queue, 0.5), "us"));
    m.insert("serve.pool.queue_wait_us_p99".into(), (pct_or_max(&queue, 0.99), "us"));
    m.insert("serve.pool.compute_us_p50".into(), (pct_or_max(&compute, 0.5), "us"));
    m.insert("serve.pool.compute_us_p99".into(), (pct_or_max(&compute, 0.99), "us"));
    m.insert("serve.pool.batch_occupancy".into(), (occupancy, "requests"));
    m.insert("serve.cache.hit_ratio".into(), (hit_ratio, "ratio"));
    m.insert(
        "serve.server.bytes_per_req".into(),
        ((d("bytes_read") + d("bytes_written")) / d("served").max(1.0), "bytes"),
    );
    m.insert("serve.live.resketches".into(), (num(after, "resketches_total"), "count"));
    m.insert("trace.overhead_us".into(), (trace.overhead_us(), "us"));
}

fn diag_num(d: &mut Vec<(String, String)>, k: &str, v: f64) {
    d.push((k.to_string(), if v.is_finite() { format!("{v}") } else { "null".to_string() }));
}

/// Run an open-loop plan, traced or not, and the common bookkeeping.
struct Phase {
    replies: Vec<Reply>,
    /// Server CPU seconds over the phase, and the reading at its end.
    cpu_s: f64,
    cpu_end: f64,
    steal_s: f64,
    before: Json,
    after: Json,
}

/// Drive `plan` and read CPU, steal and `stats` around it.
fn load_phase(
    server: &Server,
    plan: &[Planned],
    trace: Option<&mut Trace>,
) -> Result<Phase, String> {
    let before = stats(server)?;
    let (cpu0, steal0) = (server.cpu_seconds(), steal_seconds());
    let replies = open_loop(&server.addr, CONNS, plan, trace)?;
    let (cpu1, steal1) = (server.cpu_seconds(), steal_seconds());
    let after = stats(server)?;
    Ok(Phase {
        replies,
        cpu_s: cpu1 - cpu0,
        cpu_end: cpu1,
        steal_s: steal1 - steal0,
        before,
        after,
    })
}

/// Result-cache hit ratio and mean coalesced batch size between two
/// `stats` readings.
fn cache_and_batching(before: &Json, after: &Json) -> (f64, f64) {
    let d = |k: &str| num(after, k) - num(before, k);
    let hits = d("cache_hits") / (d("cache_hits") + d("cache_misses")).max(1.0);
    (hits, d("batch_occupancy_sum") / d("batch_flushes").max(1.0))
}

fn phase_diagnostics(d: &mut Vec<(String, String)>, p: &Phase) {
    let (hit_ratio, occupancy) = cache_and_batching(&p.before, &p.after);
    diag_num(d, "cache_hit_ratio", hit_ratio);
    diag_num(d, "batch_occupancy", occupancy);
    diag_num(d, "steal_s", p.steal_s);
    diag_num(d, "lateness_us_p99", pct_or_max(&lateness_us(&p.replies), 0.99));
}

/// Per-op latency table for the diagnostics: samples, p50, p99 (null
/// when fewer than ten samples lie beyond).
fn op_table(d: &mut Vec<(String, String)>, plan: &[Planned], replies: &[Reply]) {
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (p, r) in plan.iter().zip(replies) {
        by_op.entry(p.op.name()).or_default().push(r.latency_ms());
    }
    for (op, lat) in by_op {
        let f = |q| percentile(&lat, q).map_or("null".to_string(), |v| format!("{v}"));
        d.push((
            format!("latency_ms.{op}"),
            format!(
                r#"{{"samples":{},"p50":{},"p90":{},"p99":{}}}"#,
                lat.len(),
                f(0.5),
                f(0.9),
                f(0.99)
            ),
        ));
    }
}

fn failed_count(replies: &[Reply]) -> u64 {
    replies.iter().filter(|r| r.recv_ns.is_none() || !r.ok()).count() as u64
}

fn check_drain(report: DrainReport, failures: &mut Vec<String>) {
    if report.answered + report.dropped != report.submitted {
        failures.push(format!(
            "drain accounting: {} answered + {} dropped != {} submitted",
            report.answered, report.dropped, report.submitted
        ));
    }
}

fn serve_read(args: &Args, work: &Path, run_dir: &Path) -> Result<RunResult, String> {
    let prep = prepare(args, work, "serve-read", READ_N, Some(READ_EPS))?;
    let snap = prep.snap_path.clone().expect("serve-read has a snapshot");
    let server_args: Vec<String> =
        [prep.graph_path.display().to_string(), s("--snapshot"), snap.display().to_string()]
            .into_iter()
            .chain(common_flags(0))
            .collect();
    crate::progress("inputs ready");
    let (server, setups, server_args) = start_servers(&args.reecc, |_| server_args.clone())?;
    // Settle: page cache, lazy set-up and the result cache's hot set.
    let warm = gen::read_plan(&prep.graph, args.seed ^ 0x5eed, READ_RATE, 1.0, READ_RES_SHARE);
    open_loop(&server.addr, CONNS, &warm, None)?;
    crate::progress("warm");

    let mut d = Vec::new();
    let mut failures = Vec::new();
    let plan = gen::read_plan(&prep.graph, args.seed, READ_RATE, args.seconds, READ_RES_SHARE);
    let mut trace = Trace::new();
    let phase = load_phase(&server, &plan, args.trace.then_some(&mut trace))?;
    crate::progress("measured");
    let failed = failed_count(&phase.replies);
    let answered = (plan.len() as u64 - failed) as f64;
    phase_diagnostics(&mut d, &phase);
    op_table(&mut d, &plan, &phase.replies);
    let e2e = EndToEnd {
        setups,
        op: latencies(&phase, &plan, |op| op == Op::Ecc),
        tail: READ_TAIL,
        side_p50_ms: median(&latencies(&phase, &plan, |op| op == Op::Res)),
        cpu_ms_per_op: phase.cpu_s * 1e3 / answered.max(1.0),
        peak_rss_mb: server.peak_rss_mb(),
    };
    check_read_answers(&prep, &snap, &plan, &phase.replies, args.seed, &mut failures)?;
    check_drain(server.stop()?, &mut failures);
    crate::progress("checked");
    let mut m = Metrics::new();
    if args.trace {
        serving_layers(&mut m, &trace, &phase.before, &phase.after);
        no_jobs(&mut m);
        layers::run(
            &mut m,
            &mut trace,
            &prep.graph,
            &prep.text,
            server_params(READ_EPS),
            Some(&snap),
            run_dir,
            &plan,
        )?;
        write_trace(args, run_dir, &trace)?;
    }
    finish(args, e2e, m, d, failures, plan.len() as u64, failed, server_args)
}

/// The figures of one run, whatever the workload.
struct EndToEnd {
    setups: Setups,
    cpu_ms_per_op: f64,
    peak_rss_mb: f64,
    /// Client latencies (ms) of the primary operation.
    op: Vec<f64>,
    /// Percentile reported as the primary operation's tail.
    tail: f64,
    /// Client latency p50 of the secondary operation.
    side_p50_ms: f64,
}

/// Assemble the result. Besides the set-up time, the end-to-end metrics
/// are the ones that hold steady on a shared host: peak memory and server
/// CPU per operation. Client latencies move with host steal (see
/// README.md), so they are reported as the client layer of the traced run
/// and in every run's diagnostics, never as end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    e2e: EndToEnd,
    mut layers: Metrics,
    mut d: Vec<(String, String)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    server_args: Vec<String>,
) -> Result<RunResult, String> {
    let client = [
        ("client.op_p50_ms", median(&e2e.op)),
        ("client.op_tail_ms", pct(&e2e.op, e2e.tail, &args.workload)?),
        ("client.side_p50_ms", e2e.side_p50_ms),
    ];
    for (name, v) in client {
        diag_num(&mut d, name, v);
    }
    d.push(("setup_cpu_s".into(), format!("{:?}", e2e.setups.cpu_s)));
    d.push(("setup_wall_s".into(), format!("{:?}", e2e.setups.wall_s)));
    d.push(("op_samples".into(), e2e.op.len().to_string()));
    let metrics = if args.trace {
        for (name, v) in client {
            layers.insert(name.into(), (v, "ms"));
        }
        layers
    } else {
        Metrics::from([
            ("setup_s".into(), (median(&e2e.setups.wall_s), "s")),
            ("cpu_ms_per_op".into(), (e2e.cpu_ms_per_op, "ms")),
            ("peak_rss_mb".into(), (e2e.peak_rss_mb, "MB")),
        ])
    };
    Ok(RunResult {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        diagnostics: d,
        check_failures: failures,
        server_args,
    })
}

/// Flags every server gets: one pool worker, explicit queue and batch
/// window, `max_jobs` job runners, and the build mode.
fn common_flags(max_jobs: usize) -> impl Iterator<Item = String> {
    [
        s("--threads"),
        s(1),
        s("--batch-window"),
        s(BATCH_WINDOW),
        s("--queue-depth"),
        s(256),
        s("--max-jobs"),
        s(max_jobs),
    ]
    .into_iter()
    .chain(MODE.iter().map(|x| x.to_string()))
}

/// The job-layer metrics of a workload that runs no jobs.
fn no_jobs(m: &mut Metrics) {
    m.insert("serve.jobs.full_evals".into(), (0.0, "count"));
    m.insert("serve.jobs.queue_wait_ms".into(), (0.0, "ms"));
}

/// A seeded sample of `ecc` / `res` answers must be bitwise equal to an
/// in-process engine loaded from the same snapshot.
fn check_read_answers(
    prep: &Prepared,
    snap: &Path,
    plan: &[Planned],
    replies: &[Reply],
    seed: u64,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let engine = SketchSnapshot::load(snap)
        .and_then(|s| s.into_engine_with_solver(&prep.graph, Some(&server_params(READ_EPS))))
        .map_err(|e| format!("in-process snapshot load: {e}"))?;
    let mut rng = gen::Rng::new(seed, 9);
    let mut checked = 0;
    for _ in 0..400 {
        let i = rng.below(plan.len());
        let reply = Json::parse(&replies[i].line).map_err(|e| format!("reply {i}: {e}"))?;
        let req = Json::parse(&plan[i].line).map_err(|e| e.to_string())?;
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_usize).unwrap_or(usize::MAX);
        let got = num(&reply, "value");
        let (want, want_node) = match plan[i].op {
            Op::Ecc => {
                let a = engine.eccentricity(field(&req, "v"));
                (a.value, Some(a.farthest))
            }
            Op::Res => (engine.resistance(field(&req, "u"), field(&req, "v")), None),
            _ => continue,
        };
        let node_ok = want_node.is_none_or(|n| field(&reply, "node") == n);
        if got.to_bits() != want.to_bits() || !node_ok {
            failures.push(format!(
                "answer {i} ({}): server {got} vs in-process {want}",
                plan[i].line
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        failures.push("no answers were checked".to_string());
    }
    Ok(())
}

fn serve_write(args: &Args, work: &Path, run_dir: &Path) -> Result<RunResult, String> {
    let prep = prepare(args, work, "serve-write", WRITE_N, Some(WRITE_EPS))?;
    let snap = prep.snap_path.clone().expect("serve-write has a snapshot");
    let base: Vec<String> = [
        prep.graph_path.display().to_string(),
        s("--snapshot"),
        snap.display().to_string(),
        s("--error-budget"),
        s(WRITE_MIX.budget),
    ]
    .into_iter()
    .chain(common_flags(0))
    .collect();
    // The stream, with each mutation's budget charge computed by the same
    // solve the server's mutation path runs.
    let mut current = prep.graph.clone();
    let cg =
        CgOptions { preconditioner: Preconditioner::Jacobi, ..server_params(WRITE_EPS).cg };
    let mut ws = CgWorkspace::new(current.node_count());
    let mut rhs = vec![0.0; current.node_count()];
    let wp = gen::write_plan(&prep.graph, args.seed, WRITE_MIX, args.seconds, |op, e| {
        let (_, r) = solve_edge_potentials_with(&current, e, cg, &mut ws, &mut rhs);
        if op == Op::AddEdge {
            current = current.with_edge(e).expect("stream adds non-edges");
            r / (1.0 + r)
        } else {
            current = current.without_edge(e).expect("stream removes its own edges");
            r / (1.0 - r)
        }
    });
    crate::progress("inputs ready");
    let (server, setups, server_args) = start_servers(&args.reecc, |i| {
        let mut a = base.clone();
        a.push(s("--wal-dir"));
        a.push(run_dir.join(format!("wal-{i}")).display().to_string());
        a
    })?;
    // Settle on reads only: the epoch stays at its snapshot state.
    let warm = gen::read_plan(&prep.graph, args.seed ^ 0x5eed, WRITE_MIX.ecc_rate, 1.0, 0.0);
    open_loop(&server.addr, CONNS, &warm, None)?;
    crate::progress("warm");

    let mut d = Vec::new();
    let mut failures = Vec::new();
    let plan = &wp.plan;
    let mut trace = Trace::new();
    let mut phase = load_phase(&server, plan, args.trace.then_some(&mut trace))?;
    // Re-sketch work the stream caused is part of its cost: wait for the
    // last one to commit before reading CPU and counters.
    let settle = Instant::now();
    loop {
        let epoch = Json::parse(&server.request(r#"{"op":"epoch","id":0}"#)?)
            .map_err(|e| e.to_string())?;
        if epoch.get("resketch_running").and_then(Json::as_bool) == Some(false) {
            break;
        }
        if settle.elapsed() > Duration::from_secs(60) {
            return Err("re-sketch did not finish within 60 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let cpu_total = phase.cpu_s + (server.cpu_seconds() - phase.cpu_end);
    phase.after = stats(&server)?;
    crate::progress("measured");
    let mutate = latencies(&phase, plan, Op::is_mutation);
    let ecc = latencies(&phase, plan, |op| op == Op::Ecc);
    let failed = failed_count(&phase.replies);
    let answered = (plan.len() as u64 - failed) as f64;
    phase_diagnostics(&mut d, &phase);
    op_table(&mut d, plan, &phase.replies);

    // Each ack's charge must be the predicted one, bit for bit, and the
    // re-sketch count the one the seed's schedule implies.
    let mut acks: Vec<(u64, f64, bool)> = Vec::new(); // (seq, cost, kicked)
    for (p, r) in plan.iter().zip(&phase.replies) {
        if p.op.is_mutation() && r.ok() {
            let j = Json::parse(&r.line).map_err(|e| e.to_string())?;
            let kicked = j.get("resketch").and_then(Json::as_bool) == Some(true);
            acks.push((num(&j, "seq") as u64, num(&j, "cost"), kicked));
        }
    }
    acks.sort_by_key(|a| a.0);
    for (i, (&(seq, cost, _), &(op, e, want))) in acks.iter().zip(&wp.mutations).enumerate() {
        if seq != i as u64 || cost.to_bits() != want.to_bits() {
            failures.push(format!(
                "mutation {i} ({} {e:?}): acked seq {seq} cost {cost}, expected cost {want}",
                op.name()
            ));
            break;
        }
    }
    let kicked = acks.iter().filter(|a| a.2).count() as u64;
    let applied = num(&phase.after, "mutations_applied") as u64;
    let resketches = num(&phase.after, "resketches_total") as u64;
    if applied != acks.len() as u64 || acks.len() != wp.mutations.len() {
        failures.push(format!(
            "mutations: {} planned, {} acked, {applied} applied",
            wp.mutations.len(),
            acks.len()
        ));
    }
    if resketches != wp.resketches || kicked != wp.resketches {
        failures.push(format!(
            "re-sketches: {resketches} committed, {kicked} kicked, {} expected from the seed's schedule",
            wp.resketches
        ));
    }
    for (p, r) in plan.iter().zip(&phase.replies) {
        if matches!(p.op, Op::Ecc | Op::WhatIf) && r.ok() {
            let v = crate::trace::number_field(&r.line, "value").unwrap_or(f64::NAN);
            if !(v.is_finite() && v > 0.0) {
                failures.push(format!("{} answered {v}", p.line));
            }
        }
    }
    diag_num(&mut d, "resketches", resketches as f64);
    diag_num(&mut d, "mutations", acks.len() as f64);
    let e2e = EndToEnd {
        setups,
        op: mutate,
        tail: WRITE_TAIL,
        side_p50_ms: median(&ecc),
        cpu_ms_per_op: cpu_total * 1e3 / answered.max(1.0),
        peak_rss_mb: server.peak_rss_mb(),
    };
    check_drain(server.stop()?, &mut failures);
    let mut m = Metrics::new();
    if args.trace {
        serving_layers(&mut m, &trace, &phase.before, &phase.after);
        no_jobs(&mut m);
        layers::run(
            &mut m,
            &mut trace,
            &prep.graph,
            &prep.text,
            server_params(WRITE_EPS),
            Some(&snap),
            run_dir,
            plan,
        )?;
        write_trace(args, run_dir, &trace)?;
    }
    finish(args, e2e, m, d, failures, plan.len() as u64, failed, server_args)
}

/// The traced run's spans, written once at the end.
fn write_trace(args: &Args, run_dir: &Path, trace: &Trace) -> Result<(), String> {
    let path = run_dir
        .parent()
        .unwrap_or(run_dir)
        .join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
    std::fs::write(&path, trace.to_ndjson()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Mutation-latency tail percentile for `serve-write`: the highest with
/// ten samples beyond it at the stream's mutation count.
const WRITE_TAIL: f64 = 0.8;

fn optimize_jobs(args: &Args, work: &Path, run_dir: &Path) -> Result<RunResult, String> {
    let prep = prepare(args, work, "optimize-jobs", JOBS_N, None)?;
    let (server, setups, server_args) = start_servers(&args.reecc, |i| {
        [
            prep.graph_path.display().to_string(),
            s("--eps"),
            s(JOBS_SERVER_EPS),
            s("--job-dir"),
            run_dir.join(format!("jobs-{i}")).display().to_string(),
        ]
        .into_iter()
        .chain(common_flags(1))
        .collect()
    })?;
    let jobs = gen::job_plan(&prep.graph, args.seed, &JOB_LIST);
    crate::progress("servers started");
    let mut d = Vec::new();
    let mut trace = Trace::new();
    let before = stats(&server)?;
    let (cpu0, steal0) = (server.cpu_seconds(), steal_seconds());
    let mut iter_ms: Vec<f64> = Vec::new();
    let mut turnaround_ms: Vec<f64> = Vec::new();
    let mut queue_wait_ms: Vec<f64> = Vec::new();
    let mut full_evals = 0.0;
    let mut plans: Vec<Vec<Edge>> = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        let start_ns = trace.now_ns();
        let ack = traced_request(
            &server,
            &job.submit_line(i as u64),
            &mut trace,
            i as u64,
            "optimize-submit",
        )?;
        let ack = Json::parse(&ack).map_err(|e| e.to_string())?;
        let Some(id) = ack.get("job").and_then(Json::as_usize) else {
            failed += 1;
            failures.push(format!("submit refused: {}", ack.render()));
            plans.push(Vec::new()); // keeps plans aligned with jobs
            continue;
        };
        let events = follow_events(&server, id)?;
        let mut prev = 0.0;
        for (k, (arrived, ev)) in events.iter().enumerate() {
            let elapsed = num(ev, "elapsed_micros") / 1e3;
            iter_ms.push(elapsed - prev);
            if k == 0 {
                queue_wait_ms
                    .push((arrived.duration_since(t0).as_secs_f64() * 1e3 - elapsed).max(0.0));
            }
            prev = elapsed;
            full_evals += num(ev, "full_evals");
        }
        let result = server.request(&format!(
            r#"{{"op":"optimize-result","job":{id},"wait":true,"id":{i}}}"#
        ))?;
        turnaround_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        trace.push("job.turnaround", start_ns, trace.now_ns(), None, i as u64);
        let job_iters = &iter_ms[iter_ms.len() - events.len()..];
        d.push((
            format!("job.{i}.{}", job.optimizer),
            format!(
                r#"{{"k":{},"turnaround_ms":{},"iter_ms_p50":{}}}"#,
                job.k,
                turnaround_ms.last().expect("pushed above"),
                if job_iters.is_empty() { 0.0 } else { median(job_iters) }
            ),
        ));
        let result = Json::parse(&result).map_err(|e| e.to_string())?;
        if result.get("state").and_then(Json::as_str) != Some("completed") {
            failed += 1;
            failures.push(format!("job {id} did not complete: {}", result.render()));
            plans.push(Vec::new());
            continue;
        }
        let plan: Vec<Edge> = match result.get("plan") {
            Some(Json::Arr(steps)) => steps
                .iter()
                .filter_map(|st| match st {
                    Json::Arr(t) if t.len() == 3 => {
                        Some(Edge::new(t[0].as_usize()?, t[1].as_usize()?))
                    }
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        if plan.len() != events.len() {
            failures.push(format!(
                "job {id}: {} plan steps, {} events",
                plan.len(),
                events.len()
            ));
        }
        plans.push(plan);
    }
    let (cpu1, steal1) = (server.cpu_seconds(), steal_seconds());
    let after = stats(&server)?;
    let rss = server.peak_rss_mb();
    check_drain(server.stop()?, &mut failures);
    crate::progress("measured");

    // Every plan must equal the in-process optimizer's plan for the same
    // spec (plans are bitwise identical across thread counts, so the
    // replay may use every core now that the server is gone).
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (job, served) in jobs.iter().zip(&plans) {
        let want = replay_job(&prep.graph, job, threads)?;
        if &want != served {
            failures.push(format!(
                "{} plan differs: server {served:?} vs in-process {want:?}",
                job.optimizer
            ));
        }
    }
    crate::progress("checked");
    diag_num(&mut d, "steal_s", steal1 - steal0);
    diag_num(&mut d, "iterations", iter_ms.len() as f64);
    let e2e = EndToEnd {
        setups,
        op: iter_ms.clone(),
        tail: JOBS_TAIL,
        side_p50_ms: median(&turnaround_ms),
        cpu_ms_per_op: (cpu1 - cpu0) * 1e3 / iter_ms.len().max(1) as f64,
        peak_rss_mb: rss,
    };
    let mut m = Metrics::new();
    if args.trace {
        serving_layers(&mut m, &trace, &before, &after);
        m.insert("serve.jobs.full_evals".into(), (full_evals, "count"));
        m.insert("serve.jobs.queue_wait_ms".into(), (median(&queue_wait_ms), "ms"));
        layers::run(
            &mut m,
            &mut trace,
            &prep.graph,
            &prep.text,
            server_params(JOBS_SERVER_EPS),
            None,
            run_dir,
            &[],
        )?;
        write_trace(args, run_dir, &trace)?;
    }
    finish(args, e2e, m, d, failures, jobs.len() as u64, failed, server_args)
}

/// Job-iteration tail percentile for `optimize-jobs`.
const JOBS_TAIL: f64 = 0.8;

/// One control request as a client span with the server's timings.
fn traced_request(
    server: &Server,
    line: &str,
    trace: &mut Trace,
    req: u64,
    op: &str,
) -> Result<String, String> {
    let start = trace.now_ns();
    let reply = server.request(line)?;
    let end = trace.now_ns();
    trace.client_request(req, op, start, end, &reply);
    Ok(reply)
}

/// Follow a job's event stream to its end; returns each event with its
/// arrival time.
fn follow_events(server: &Server, job: usize) -> Result<Vec<(Instant, Json)>, String> {
    let mut s = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(170))).map_err(|e| e.to_string())?;
    writeln!(s, r#"{{"op":"optimize-events","job":{job},"follow":true,"id":0}}"#)
        .map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for line in BufReader::new(s).lines() {
        let line = line.map_err(|e| format!("events: {e}"))?;
        let j = Json::parse(&line).map_err(|e| format!("event line: {e}"))?;
        if j.get("event").and_then(Json::as_bool) != Some(true) {
            return Ok(events);
        }
        events.push((Instant::now(), j));
    }
    Err("event stream ended without its closing line".to_string())
}

/// The plan the library computes for one job spec.
pub fn replay_job(g: &Graph, job: &JobPlan, threads: usize) -> Result<Vec<Edge>, String> {
    let mut params = reecc_opt::OptimizeParams::with_epsilon(job.eps);
    params.sketch.seed = job.seed;
    params.sketch.threads = threads;
    params.sketch.block_size = JobPlan::BLOCK_SIZE;
    let ctrl = &mut reecc_opt::RunControl::none();
    let run = match job.optimizer {
        "cenminrecc" => reecc_opt::cen_min_recc_controlled(g, job.k, job.source, &params, ctrl),
        "farminrecc" => reecc_opt::far_min_recc_controlled(g, job.k, job.source, &params, ctrl),
        "chminrecc" => reecc_opt::ch_min_recc_controlled(g, job.k, job.source, &params, ctrl),
        "minrecc" => reecc_opt::min_recc_controlled(g, job.k, job.source, &params, ctrl),
        other => return Err(format!("no replay for optimizer {other}")),
    }
    .map_err(|e| format!("in-process {}: {e}", job.optimizer))?;
    Ok(run.plan())
}
