//! Seeded inputs: graphs and request streams.
//!
//! Everything here is a pure function of the seed, so one `--seed` gives
//! byte-identical edge lists and request streams on every host. The
//! program under test receives only the rendered files and request lines.

use std::collections::{HashSet, VecDeque};

use reecc_graph::generators::{holme_kim_varied, with_pendant_periphery};
use reecc_graph::{Edge, Graph};

/// SplitMix64: a tiny, fully specified generator, so streams do not
/// depend on any library's RNG algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Fraction of nodes on pendant chains, as in the dataset analogs.
const PERIPHERY_FRACTION: f64 = 0.15;

/// The dataset-analog recipe at `n` nodes: a Holme–Kim core with varied
/// attachment plus a 15% pendant periphery, rendered as an edge list.
/// The server renumbers labels by first appearance; [`parse_graph`] does
/// the same, and every stream is drawn over the parsed graph's ids.
pub fn graph_text(n: usize, avg_degree: usize, seed: u64) -> String {
    let periphery = (n as f64 * PERIPHERY_FRACTION) as usize;
    let core = holme_kim_varied(n - periphery, avg_degree / 2, 0.6, seed);
    let g = with_pendant_periphery(&core, periphery, 3, seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::new();
    reecc_graph::io::write_edge_list(&g, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("edge lists are ASCII")
}

/// Parse an edge list exactly as `reecc serve` does.
pub fn parse_graph(text: &str) -> Graph {
    reecc_graph::io::parse_edge_list_lenient(text).expect("generated edge lists parse").0
}

/// What a planned request asks for; the key the metrics group by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Ecc,
    Res,
    WhatIf,
    AddEdge,
    RemoveEdge,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Ecc => "ecc",
            Op::Res => "res",
            Op::WhatIf => "whatif-edge",
            Op::AddEdge => "add-edge",
            Op::RemoveEdge => "remove-edge",
        }
    }

    pub fn is_mutation(self) -> bool {
        matches!(self, Op::AddEdge | Op::RemoveEdge)
    }
}

/// One request of an open-loop stream: when it is due (nanoseconds
/// after the stream starts) and the line to send. The line's `id` is the
/// request's index in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub due_ns: u64,
    pub op: Op,
    pub line: String,
}

/// Render a plan as NDJSON with due times (the determinism tests compare
/// these bytes).
#[cfg(test)]
pub fn render_plan(plan: &[Planned]) -> String {
    plan.iter().map(|p| format!("{} {}\n", p.due_ns, p.line)).collect()
}

/// Zipf(`s`) sampling over `n` ranks, with ranks mapped to nodes through
/// a seeded permutation so the hot set is not simply the low ids.
pub struct Zipf {
    cdf: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            node_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, node_of_rank }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.node_of_rank[rank]
    }
}

/// Read mix: Poisson arrivals at `rate` per second for `seconds`; a
/// `res_share` of uniform-pair `res` queries, the rest `ecc` on
/// Zipf-skewed sources.
pub fn read_plan(
    g: &Graph,
    seed: u64,
    rate: f64,
    seconds: f64,
    res_share: f64,
) -> Vec<Planned> {
    let n = g.node_count();
    let mut rng = Rng::new(seed, 1);
    let zipf = Zipf::new(n, 0.9, &mut rng);
    let mut plan = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < seconds {
        let id = plan.len();
        let (op, line) = if rng.unit() < res_share {
            let u = rng.below(n);
            let v = (u + 1 + rng.below(n - 1)) % n;
            (Op::Res, format!(r#"{{"op":"res","u":{u},"v":{v},"id":{id}}}"#))
        } else {
            let v = zipf.sample(&mut rng);
            (Op::Ecc, format!(r#"{{"op":"ecc","v":{v},"id":{id}}}"#))
        };
        plan.push(Planned { due_ns: (t * 1e9) as u64, op, line });
        t += rng.exp(1.0 / rate);
    }
    plan
}

/// Shape of the mixed read/write stream.
#[derive(Debug, Clone, Copy)]
pub struct WriteMix {
    /// Mutations per second, evenly spaced.
    pub mutation_rate: f64,
    /// Poisson `ecc` arrivals per second.
    pub ecc_rate: f64,
    /// Poisson `whatif-edge` arrivals per second.
    pub whatif_rate: f64,
    /// Edges the stream keeps added at most; past it, mutations
    /// alternate remove (oldest added edge first) and add.
    pub max_added: usize,
    /// The server's per-epoch error budget (`--error-budget`).
    pub budget: f64,
    /// Mutation pause after each mutation that drains the budget, so the
    /// re-sketch it kicks commits before the next mutation arrives.
    pub pause_s: f64,
}

/// The mixed stream and what it implies.
pub struct WritePlan {
    pub plan: Vec<Planned>,
    /// Every mutation in order, with the budget charge the cost model
    /// gave it.
    pub mutations: Vec<(Op, Edge, f64)>,
    /// Re-sketches the budget rule kicks over the stream.
    pub resketches: u64,
}

/// Mixed stream: evenly spaced `add-edge` / `remove-edge` plus Poisson
/// `ecc` and `whatif-edge` reads. A removal only ever removes an edge the
/// stream added earlier, so the graph stays connected. What-if pairs are
/// drawn from base non-edges the mutations never touch, so every what-if
/// is valid whatever epoch answers it.
///
/// `cost` charges each mutation against the budget (the server's rule:
/// `r/(1+r)` for an addition, `r/(1−r)` for a removal, evaluated in
/// stream order). When a mutation drains the budget the server kicks a
/// re-sketch and the spend restarts at zero; the stream then pauses its
/// mutations for `pause_s`, so no mutation lands in the re-sketch's tail
/// and the re-sketch count is a function of the seed alone.
pub fn write_plan(
    g: &Graph,
    seed: u64,
    mix: WriteMix,
    seconds: f64,
    mut cost: impl FnMut(Op, Edge) -> f64,
) -> WritePlan {
    let n = g.node_count();
    let mut touched: HashSet<Edge> = HashSet::new();
    let fresh_non_edge = |rng: &mut Rng, touched: &mut HashSet<Edge>| loop {
        let u = rng.below(n);
        let v = rng.below(n);
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let e = Edge::new(u, v);
        if touched.insert(e) {
            return e;
        }
    };
    let mut mrng = Rng::new(seed, 2);
    let mut added: VecDeque<Edge> = VecDeque::new();
    let mut events: Vec<(f64, Op, Option<Edge>)> = Vec::new();
    let mut mutations = Vec::new();
    let (mut spent, mut resketches) = (0.0, 0u64);
    let gap = 1.0 / mix.mutation_rate;
    let mut t = gap / 2.0;
    while t < seconds {
        let remove = added.len() >= mix.max_added && mutations.len() % 2 == 0;
        let (op, e) = if remove {
            (Op::RemoveEdge, added.pop_front().expect("removals follow additions"))
        } else {
            let e = fresh_non_edge(&mut mrng, &mut touched);
            added.push_back(e);
            (Op::AddEdge, e)
        };
        let c = cost(op, e);
        events.push((t, op, Some(e)));
        mutations.push((op, e, c));
        spent += c;
        if spent >= mix.budget {
            resketches += 1;
            spent = 0.0;
            t += mix.pause_s;
        }
        t += gap;
    }
    let mut rrng = Rng::new(seed, 4);
    let zipf = Zipf::new(n, 0.9, &mut rrng);
    for (rate, op) in [(mix.ecc_rate, Op::Ecc), (mix.whatif_rate, Op::WhatIf)] {
        let mut t = rrng.exp(1.0 / rate);
        while t < seconds {
            events.push((t, op, None));
            t += rrng.exp(1.0 / rate);
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut plan = Vec::with_capacity(events.len());
    for (t, op, e) in events {
        let id = plan.len();
        let line = match (op, e) {
            (Op::AddEdge | Op::RemoveEdge, Some(e)) => {
                format!(r#"{{"op":"{}","u":{},"v":{},"id":{id}}}"#, op.name(), e.u, e.v)
            }
            (Op::Ecc, _) => {
                let v = zipf.sample(&mut rrng);
                format!(r#"{{"op":"ecc","v":{v},"id":{id}}}"#)
            }
            (Op::WhatIf, _) => {
                let s = zipf.sample(&mut rrng);
                let e = fresh_non_edge(&mut rrng, &mut touched);
                format!(r#"{{"op":"whatif-edge","s":{s},"u":{},"v":{},"id":{id}}}"#, e.u, e.v)
            }
            _ => unreachable!("the write mix sends no res queries"),
        };
        plan.push(Planned { due_ns: (t * 1e9) as u64, op, line });
    }
    WritePlan { plan, mutations, resketches }
}

/// One optimization job of the fixed job list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPlan {
    pub optimizer: &'static str,
    pub source: usize,
    pub k: usize,
    pub eps: f64,
    pub seed: u64,
}

impl JobPlan {
    /// Block width every job and its in-process replay use: explicit,
    /// never the adaptive `0`.
    pub const BLOCK_SIZE: usize = 8;

    pub fn submit_line(&self, id: u64) -> String {
        format!(
            r#"{{"op":"optimize-submit","optimizer":"{}","s":{},"k":{},"eps":{},"threads":1,"block_size":{},"seed":{},"id":{id}}}"#,
            self.optimizer,
            self.source,
            self.k,
            self.eps,
            Self::BLOCK_SIZE,
            self.seed
        )
    }
}

/// The fixed job list: the optimizers, budgets and ε are fixed; the
/// seed picks the sources (core nodes of degree ≥ 3, never pendant
/// chains) and the sketch seeds.
pub fn job_plan(g: &Graph, seed: u64, list: &[(&'static str, usize, f64)]) -> Vec<JobPlan> {
    let mut rng = Rng::new(seed, 3);
    let core: Vec<usize> = g.nodes().filter(|&v| g.degree(v) >= 3).collect();
    list.iter()
        .map(|&(optimizer, k, eps)| JobPlan {
            optimizer,
            source: core[rng.below(core.len())],
            k,
            eps,
            seed: rng.next_u64() >> 12,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: WriteMix = WriteMix {
        mutation_rate: 4.0,
        ecc_rate: 30.0,
        whatif_rate: 3.0,
        max_added: 6,
        budget: 2.5,
        pause_s: 1.0,
    };

    #[test]
    fn same_seed_gives_byte_identical_graphs_and_streams() {
        let a = graph_text(600, 6, 11);
        assert_eq!(a, graph_text(600, 6, 11));
        assert_ne!(a, graph_text(600, 6, 12));
        let g = parse_graph(&a);
        assert_eq!(g.node_count(), 600);
        assert!(reecc_graph::traversal::is_connected(&g));

        let r = render_plan(&read_plan(&g, 11, 500.0, 2.0, 0.2));
        assert_eq!(r, render_plan(&read_plan(&g, 11, 500.0, 2.0, 0.2)));
        assert_ne!(r, render_plan(&read_plan(&g, 12, 500.0, 2.0, 0.2)));

        let w = write_plan(&g, 11, MIX, 5.0, |_, _| 1.0);
        let w2 = write_plan(&g, 11, MIX, 5.0, |_, _| 1.0);
        assert_eq!(render_plan(&w.plan), render_plan(&w2.plan));
        assert_eq!(w.mutations, w2.mutations);

        let list = [("cenminrecc", 8, 0.4), ("farminrecc", 2, 0.5)];
        assert_eq!(job_plan(&g, 11, &list), job_plan(&g, 11, &list));
    }

    #[test]
    fn removals_only_remove_edges_the_stream_added() {
        let g = parse_graph(&graph_text(400, 6, 5));
        let WritePlan { plan, mutations: muts, resketches } =
            write_plan(&g, 5, MIX, 10.0, |_, _| 1.0);
        let mut current = g.clone();
        for &(op, e, _) in &muts {
            match op {
                Op::AddEdge => {
                    assert!(!current.has_edge(e.u, e.v));
                    current = current.with_edge(e).unwrap();
                }
                _ => {
                    assert!(!g.has_edge(e.u, e.v), "a base edge was scheduled for removal");
                    current = current.without_edge(e).unwrap();
                }
            }
        }
        assert!(muts.iter().any(|m| m.0 == Op::RemoveEdge));
        // Unit costs against a 2.5 budget: a kick every third mutation,
        // each followed by a one-second pause.
        assert_eq!(resketches, muts.len() as u64 / 3);
        let due: Vec<u64> =
            plan.iter().filter(|p| p.op.is_mutation()).map(|p| p.due_ns).collect();
        assert_eq!(due[3] - due[2], 1_250_000_000);
        assert_eq!(plan.iter().filter(|p| p.op.is_mutation()).count(), muts.len());
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn read_plan_rate_and_mix_are_as_asked() {
        let g = parse_graph(&graph_text(500, 6, 3));
        let plan = read_plan(&g, 3, 1000.0, 10.0, 0.25);
        let res = plan.iter().filter(|p| p.op == Op::Res).count() as f64;
        assert!((plan.len() as f64 - 10_000.0).abs() < 400.0, "{}", plan.len());
        assert!((res / plan.len() as f64 - 0.25).abs() < 0.02);
    }
}
