//! In-process timings of each crate's public functions on the workload's
//! own seeded inputs (traced runs only). Every call is a span under one
//! `layers` root; a metric is the median over repeated calls.

use std::path::Path;
use std::time::{Duration, Instant};

use reecc_core::update::solve_edge_potentials_with;
use reecc_core::{
    CgOptions, HullPanel, Preconditioner, QueryEngine, ResistanceSketch, SketchParams,
    WhatIfScratch,
};
use reecc_graph::{Edge, Graph};
use reecc_hull::{approx_convex_hull, ApproxChOptions};
use reecc_linalg::cg::CgWorkspace;
use reecc_linalg::LaplacianOp;
use reecc_opt::CandidateEvaluator;
use reecc_serve::protocol::{parse_request, Outcome, Response};
use reecc_serve::{SketchSnapshot, WalOp, WalRecord, WalWriter};

use crate::gen::{Planned, Rng};
use crate::stats::median;
use crate::trace::Trace;
use crate::Metrics;

/// Repeat `f` (one span per call, at least one call) until `budget` is
/// spent or `max` calls ran; returns the median call time in µs.
fn repeat(
    trace: &mut Trace,
    root: usize,
    name: &str,
    budget: Duration,
    max: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    while i < max && (i == 0 || start.elapsed() < budget) {
        trace.time(name, Some(root), || f(i));
        i += 1;
    }
    median(&trace.durations_us(name))
}

/// Time a batch of `per` cheap calls as one span; returns µs per call.
fn repeat_batched(
    trace: &mut Trace,
    root: usize,
    name: &str,
    per: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    repeat(trace, root, name, Duration::from_millis(200), 50, |b| {
        for i in 0..per {
            f(b * per + i);
        }
    }) / per as f64
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    m: &mut Metrics,
    trace: &mut Trace,
    g: &Graph,
    text: &str,
    params: SketchParams,
    snapshot: Option<&Path>,
    run_dir: &Path,
    plan: &[Planned],
) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root_start = trace.now_ns();
    let root = trace.push("layers", root_start, root_start, None, 0);
    let n = g.node_count();
    let short = Duration::from_millis(300);

    // graph / linalg / hull / core.sketch: the build path.
    let us = repeat(trace, root, "graph.io.parse", short, 20, |_| {
        std::hint::black_box(reecc_graph::io::parse_edge_list_lenient(text).expect("parses"));
    });
    m.insert("graph.io.parse_ms".into(), (us / 1e3, "ms"));
    let us = repeat(trace, root, "linalg.lambda_max", short, 20, |_| {
        std::hint::black_box(reecc_linalg::scaled_lambda_max_estimate(&LaplacianOp::new(g)));
    });
    m.insert("linalg.lambda_max_ms".into(), (us / 1e3, "ms"));
    let resolved = params.resolved_for(g);
    let mut sketch = None;
    for t in [1usize, 2] {
        let p = SketchParams { threads: t, block_size: 8, ..resolved };
        let name = format!("core.sketch.build_t{t}");
        let built = trace.time(&name, Some(root), || ResistanceSketch::build(g, &p));
        let built = built.map_err(|e| format!("sketch build: {e}"))?;
        m.insert(
            format!("core.sketch.build_ms_t{t}"),
            (median(&trace.durations_us(&name)) / 1e3, "ms"),
        );
        sketch = Some(built);
    }
    let sketch = sketch.expect("built above");
    m.insert("core.sketch.cg_iters".into(), (sketch.solve_iterations() as f64, "count"));
    m.insert(
        "core.sketch.rows_rescued".into(),
        (sketch.diagnostics().repaired.len() as f64, "count"),
    );
    let theta = (params.epsilon / 12.0).clamp(1e-6, 0.999);
    let opts = ApproxChOptions {
        max_vertices: Some(reecc_core::query::default_hull_budget(n)),
        ..ApproxChOptions::default()
    };
    let mut hull = Vec::new();
    let us = repeat(trace, root, "hull.approxch", short, 10, |_| {
        hull = approx_convex_hull(&sketch.point_view(), theta, opts).vertices;
    });
    m.insert("hull.approxch_ms".into(), (us / 1e3, "ms"));
    m.insert("hull.size".into(), (hull.len() as f64, "count"));

    // The serving engine: the snapshot the server loads, or a fresh
    // build for the cold workload.
    let snap_path = run_dir.join("layers-snap.bin");
    let engine = match snapshot {
        Some(path) => SketchSnapshot::load(path)
            .and_then(|s| s.into_engine_with_solver(g, Some(&params)))
            .map_err(|e| format!("snapshot: {e}"))?,
        None => QueryEngine::build(g, &SketchParams { threads, block_size: 8, ..resolved })
            .map_err(|e| format!("engine build: {e}"))?,
    };
    let snap = SketchSnapshot::from_engine(&engine);
    let us = repeat(trace, root, "serve.snapshot.save", short, 5, |_| {
        snap.save(&snap_path).expect("snapshot save");
    });
    m.insert("serve.snapshot.save_ms".into(), (us / 1e3, "ms"));
    let bytes = std::fs::metadata(&snap_path).map_or(0, |md| md.len());
    m.insert("serve.snapshot.bytes".into(), (bytes as f64, "bytes"));
    let us = repeat(trace, root, "serve.snapshot.load", short, 5, |_| {
        std::hint::black_box(SketchSnapshot::load(&snap_path).expect("snapshot load"));
    });
    m.insert("serve.snapshot.load_ms".into(), (us / 1e3, "ms"));
    let p_resketch = SketchParams { threads, block_size: 8, ..*engine.params() };
    let us = repeat(trace, root, "serve.live.resketch", short, 2, |_| {
        std::hint::black_box(
            QueryEngine::build(engine.graph(), &p_resketch).expect("re-sketch"),
        );
    });
    m.insert("serve.live.resketch_s".into(), (us / 1e6, "s"));

    // Read kernels on seeded sources.
    let mut rng = Rng::new(n as u64, 17);
    let sources: Vec<usize> = (0..512).map(|_| rng.below(n)).collect();
    let src = |i: usize| sources[i % sources.len()];
    let us = repeat_batched(trace, root, "core.panel.ecc", 64, |i| {
        std::hint::black_box(engine.eccentricity(src(i)));
    });
    m.insert("core.panel.ecc_us".into(), (us, "us"));
    let us = repeat_batched(trace, root, "core.panel.batch8", 8, |i| {
        let batch: Vec<usize> = (0..8).map(|k| src(i * 8 + k)).collect();
        std::hint::black_box(engine.eccentricity_batch_with(&batch, 1));
    });
    m.insert("core.panel.batch8_us_per_src".into(), (us / 8.0, "us"));
    let us = repeat_batched(trace, root, "core.sketch.hull_gather", 64, |i| {
        std::hint::black_box(engine.sketch().eccentricity_over(src(i), engine.hull()));
    });
    m.insert("core.sketch.hull_gather_us".into(), (us, "us"));
    let us = repeat_batched(trace, root, "core.sketch.full_scan", 4, |i| {
        std::hint::black_box(engine.sketch().eccentricity(src(i)));
    });
    m.insert("core.sketch.full_scan_us".into(), (us, "us"));
    let us = repeat(trace, root, "core.panel.build", short, 20, |_| {
        std::hint::black_box(HullPanel::build(engine.sketch(), engine.hull()));
    });
    m.insert("core.panel.build_ms".into(), (us / 1e3, "ms"));

    // Mutation path on seeded non-edges.
    let non_edges: Vec<Edge> = std::iter::repeat_with(|| (rng.below(n), rng.below(n)))
        .filter(|&(u, v)| u != v && !g.has_edge(u, v))
        .map(|(u, v)| Edge::new(u, v))
        .take(64)
        .collect();
    let cg = CgOptions { preconditioner: Preconditioner::Jacobi, ..engine.params().cg };
    let mut ws = CgWorkspace::new(n);
    let mut rhs = vec![0.0; n];
    let us = repeat(trace, root, "core.update.potentials", short, 64, |i| {
        std::hint::black_box(solve_edge_potentials_with(
            g,
            non_edges[i % 64],
            cg,
            &mut ws,
            &mut rhs,
        ));
    });
    m.insert("core.update.potentials_ms".into(), (us / 1e3, "ms"));
    let us = repeat(trace, root, "core.engine.add_edge", short, 16, |i| {
        std::hint::black_box(engine.with_added_edge(non_edges[i % 64], i as u64).expect("add"));
    });
    m.insert("core.engine.add_edge_ms".into(), (us / 1e3, "ms"));
    let mut scratch = WhatIfScratch::new(n);
    let us = repeat(trace, root, "core.engine.whatif", short, 64, |i| {
        std::hint::black_box(engine.eccentricity_after_edge_with(
            &mut scratch,
            src(i),
            non_edges[i % 64],
        ));
    });
    m.insert("core.engine.whatif_ms".into(), (us / 1e3, "ms"));
    let wal_path = run_dir.join("layers.wal");
    let mut wal = WalWriter::create(&wal_path, 0, 0).map_err(|e| format!("wal: {e}"))?;
    let us = repeat(trace, root, "serve.wal.append", short, 100, |i| {
        let e = non_edges[i % 64];
        let rec = WalRecord { op: WalOp::AddEdge, u: e.u, v: e.v, seq: i as u64 };
        wal.append(&rec).expect("wal append");
    });
    m.insert("serve.wal.append_us".into(), (us, "us"));

    // Protocol framing on the workload's own request lines (or a fixed
    // line for the job workload, which sends none).
    let fallback = [Planned {
        due_ns: 0,
        op: crate::gen::Op::Ecc,
        line: r#"{"op":"ecc","v":0,"id":0}"#.into(),
    }];
    let lines = if plan.is_empty() { &fallback[..] } else { plan };
    let us = repeat_batched(trace, root, "serve.protocol.parse", 256, |i| {
        std::hint::black_box(
            parse_request(&lines[i % lines.len()].line).expect("valid request"),
        );
    });
    m.insert("serve.protocol.parse_us".into(), (us, "us"));
    let answers: Vec<_> = sources.iter().map(|&v| engine.eccentricity(v)).collect();
    let us = repeat_batched(trace, root, "serve.protocol.render", 256, |i| {
        let a = answers[i % answers.len()];
        let r = Response {
            id: Some(i as u64),
            op: "ecc",
            outcome: Outcome::Ecc { value: a.value, node: a.farthest },
            tier: Some("fast"),
            cached: false,
            compute_micros: 100,
            queue_micros: 10,
        };
        std::hint::black_box(r.render());
    });
    m.insert("serve.protocol.render_us".into(), (us, "us"));

    // Candidate evaluation: REMD candidates at one source, one thread.
    let s0 = src(0);
    let candidates: Vec<Edge> = g.non_edges_at(s0).into_iter().take(64).collect();
    let evaluator = CandidateEvaluator {
        threads: 1,
        block_size: 8,
        ..CandidateEvaluator::from_sketch_params(&resolved)
    };
    let base = evaluator.distance_scan(engine.sketch(), s0);
    let mut recovered = 0;
    let us = repeat(trace, root, "optimize.evaluator.evaluate", short, 5, |_| {
        let (_, stats) = evaluator.evaluate_edges(g, &base, s0, &candidates);
        recovered = stats.recovered_columns;
    });
    m.insert(
        "optimize.evaluator.cands_per_s".into(),
        (candidates.len() as f64 / (us / 1e6), "1/s"),
    );
    m.insert("optimize.evaluator.recovered_columns".into(), (recovered as f64, "count"));

    let end = trace.now_ns();
    trace.spans[root].end_ns = end;
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&wal_path);
    Ok(())
}
