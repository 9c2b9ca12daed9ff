//! The traced run: per-layer numbers, timed from outside around calls
//! into each layer's public API.
//!
//! The run replays a sample of the workload's own requests through the
//! calls a request crosses — JSON tree, envelope decode, graph build,
//! digest, scheduler, cycle removal, solver, metrics, encode — recording
//! a span (name, start, end, parent, request id) around each. A layer's
//! number is its self time: its span less its child spans. Spans are
//! kept in memory and written to `perfbench/out/` when the run ends.
//!
//! Layers a workload's requests do not reach are measured on the
//! benchmark's other inputs, so every traced run reports every layer:
//! the colony phases on corpus graphs where the workload solves with
//! `lpl`, the transport and router hop on a two-shard fleet, and the
//! scaling slopes on the `large_graphs` shapes at 10⁴ and 10⁵ nodes.

use crate::check;
use crate::gen::{self, Algo, Graph, Rng};
use crate::load::{self, ms, Edit, Editor, Fleet, Outcome, Run};
use crate::report::{median, quantile, Metrics};
use antlayer_aco::{
    perform_walk, stretch, AcoLayering, AcoParams, SearchState, VertexLayerMatrix, WalkCtx,
    WalkScratch,
};
use antlayer_client::{Client, ClientConfig, Connection, Transport};
use antlayer_graph::{Dag, DiGraph};
use antlayer_layering::{LayeringAlgorithm, LayeringMetrics, LongestPath, WidthModel};
use antlayer_service::protocol::{self, Request, Response};
use antlayer_service::{Scheduler, SchedulerConfig, ServiceCore, Source};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
}

/// Spans in memory, in the order they opened.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        ms(self.origin.elapsed())
    }

    /// Times `f` as span `name` under `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span closed later by [`close`](Self::close).
    fn open(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: None,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Self time of each span: its length less its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end - s.start;
            }
        }
        out
    }

    /// Self times grouped by span name.
    fn by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Sum of the self times of request `request`'s spans, root excluded.
    fn attributed(&self, request: u64) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.request == request && s.parent.is_some())
            .map(|(_, t)| t)
            .sum()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ms":{:.6},"end_ms":{:.6},"parent":{parent},"request":{}}}{}"#,
                s.name,
                s.start,
                s.end,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts the traced run keeps besides spans.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    wrong: u64,
    hits: u64,
    replies: u64,
    queue_ms: Vec<f64>,
    reversed: Vec<f64>,
    request_bytes: u64,
}

impl Counts {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("check failed ({what}): {e}");
            self.wrong += 1;
        }
    }
}

/// Replays one `layout` line through the layer calls, as request
/// `request`. Returns the scheduler's response for later edits.
fn replay_layout(
    tr: &mut Tracer,
    sched: &Scheduler,
    counts: &mut Counts,
    request: u64,
    line: &str,
    g: &Graph,
) -> Option<antlayer_service::LayoutResponse> {
    counts.attempted += 1;
    counts.request_bytes += line.len() as u64;
    // The scheduler computes the request first, for its queue wait and
    // the reply to encode; that compute is not part of the replay.
    let response = match protocol::parse_request_envelope(line) {
        Ok((Request::Layout(req), _)) => sched.submit(*req).and_then(|t| t.wait()),
        _ => {
            counts.failed += 1;
            return None;
        }
    };
    let Ok(response) = response else {
        counts.failed += 1;
        return None;
    };
    counts.queue_ms.push(response.queue_us as f64 / 1e3);
    counts.replies += 1;
    let reply = protocol::layout_reply_of(&response);
    counts.check(
        "layout",
        check::layout(g, &load::claim(&reply), 1.0).map(|_| ()),
    );

    let root = tr.open("request", request);
    let (parsed, envelope) = tr.span("protocol.request", Some(root), request, || {
        protocol::parse_request_envelope(line)
    });
    // The envelope decode builds its JSON tree and the graph; both are
    // timed again as their own calls and count as its children.
    tr.span("protocol.json", Some(envelope), request, || {
        protocol::parse(line).is_ok()
    });
    tr.span("graph.build", Some(envelope), request, || {
        DiGraph::from_edges(g.n, &g.edges).is_ok()
    });
    let Ok((Request::Layout(req), env)) = parsed else {
        unreachable!("the same line decoded above");
    };
    tr.span("digest", Some(root), request, || req.digest());
    let (oriented, _) = tr.span("orient", Some(root), request, || {
        antlayer_sugiyama::acyclic_orientation(&req.graph)
    });
    counts.reversed.push(oriented.reversed.len() as f64);
    let wm = WidthModel::with_dummy_width(req.nd_width);
    let (solution, _) = tr.span("solve", Some(root), request, || {
        req.algo.solver().solve(&oriented.dag, &wm, None)
    });
    tr.span("metrics", Some(root), request, || {
        LayeringMetrics::compute(&oriented.dag, &solution.layering, &wm)
    });
    tr.span("protocol.encode", Some(root), request, || {
        Response::Layout(Box::new(reply)).encode(&env)
    });
    tr.close(root);
    Some(response)
}

/// The replay's calls again with no spans recorded, timed as a whole:
/// the baseline of the tracing overhead.
fn replay_plain(line: &str, g: &Graph, response: &antlayer_service::LayoutResponse) -> f64 {
    let reply = protocol::layout_reply_of(response);
    let t = Instant::now();
    let Ok((Request::Layout(req), env)) =
        std::hint::black_box(protocol::parse_request_envelope(line))
    else {
        return f64::NAN;
    };
    std::hint::black_box(protocol::parse(line).is_ok());
    std::hint::black_box(DiGraph::from_edges(g.n, &g.edges).is_ok());
    std::hint::black_box(req.digest());
    let oriented = std::hint::black_box(antlayer_sugiyama::acyclic_orientation(&req.graph));
    let wm = WidthModel::with_dummy_width(req.nd_width);
    let solution = std::hint::black_box(req.algo.solver().solve(&oriented.dag, &wm, None));
    std::hint::black_box(LayeringMetrics::compute(
        &oriented.dag,
        &solution.layering,
        &wm,
    ));
    std::hint::black_box(Response::Layout(Box::new(reply)).encode(&env));
    ms(t.elapsed())
}

/// A cached request through `Scheduler::submit` + `Ticket::wait`.
fn replay_hit(tr: &mut Tracer, sched: &Scheduler, counts: &mut Counts, request: u64, line: &str) {
    counts.attempted += 1;
    let Ok((Request::Layout(req), _)) = protocol::parse_request_envelope(line) else {
        counts.failed += 1;
        return;
    };
    let (r, _) = tr.span("scheduler.hit", None, request, || {
        sched.submit(*req).and_then(|t| t.wait())
    });
    match r {
        Ok(r) => {
            counts.replies += 1;
            counts.hits += u64::from(r.source == Source::CacheHit);
        }
        Err(_) => counts.failed += 1,
    }
}

/// A warm edit: the delta applied to the base graph, the base layering
/// repaired onto the edited DAG, and the seeded solve.
fn replay_warm(
    tr: &mut Tracer,
    sched: &Scheduler,
    counts: &mut Counts,
    request: u64,
    base: &antlayer_service::LayoutResponse,
    line: &str,
) {
    counts.attempted += 1;
    let root = tr.open("request", request);
    let (parsed, _) = tr.span("protocol.request", Some(root), request, || {
        protocol::parse_request_envelope(line)
    });
    let Ok((Request::LayoutDelta(req), _)) = parsed else {
        counts.failed += 1;
        tr.close(root);
        return;
    };
    let (edited, _) = tr.span("graph.delta", Some(root), request, || {
        req.delta.apply(&base.result.graph)
    });
    let Ok(edited) = edited else {
        counts.failed += 1;
        tr.close(root);
        return;
    };
    let (oriented, _) = tr.span("orient", Some(root), request, || {
        antlayer_sugiyama::acyclic_orientation(&edited)
    });
    let wm = WidthModel::with_dummy_width(req.nd_width);
    let (seed, _) = tr.span("repair", Some(root), request, || {
        base.result.layering.repaired(&oriented.dag)
    });
    let (solution, _) = tr.span("solve", Some(root), request, || {
        req.algo
            .solver()
            .solve_seeded(&oriented.dag, &wm, &seed, None)
    });
    tr.span("metrics", Some(root), request, || {
        LayeringMetrics::compute(&oriented.dag, &solution.layering, &wm)
    });
    tr.close(root);
    match sched.submit_delta(*req).and_then(|t| t.wait()) {
        Ok(r) => {
            counts.replies += 1;
            counts.hits += u64::from(r.source == Source::CacheHit);
        }
        Err(_) => counts.failed += 1,
    }
}

/// The same line untraced through `ServiceCore::respond` on a fresh
/// core, so the request is cold there too; returns its time in ms.
fn untraced(line: &str) -> f64 {
    let core = ServiceCore::new(Arc::new(Scheduler::new(SchedulerConfig {
        threads: 1,
        ..SchedulerConfig::default()
    })));
    let t = Instant::now();
    let reply = core.respond(line);
    let dt = ms(t.elapsed());
    std::hint::black_box(reply);
    dt
}

/// The colony's phases on `graphs`: walks, scoring and evaporation
/// timed one call at a time, then whole cold and warm runs.
fn colony(graphs: &[Graph], seed: u64, m: &mut Metrics) {
    let params = AcoParams::default().with_seed(seed);
    let (mut walk, mut score, mut evap, mut walks_per_s) = (vec![], vec![], vec![], vec![]);
    let (mut improving, mut tours_seen) = (0usize, 0usize);
    let (mut cold_tours, mut warm_tours) = (vec![], vec![]);
    let mut rng = Rng::new(gen::mix(seed, 7_000));
    for g in graphs {
        let Ok(dag) = Dag::from_edges(g.n, &g.edges) else {
            continue;
        };
        let wm = WidthModel::with_dummy_width(1.0);
        let lpl = LongestPath.layer(&dag, &wm);
        let stretched = stretch(&lpl, dag.node_count(), params.stretch);
        let base = SearchState::new(
            &dag,
            &stretched.layering,
            stretched.total_layers.max(1),
            &wm,
        );
        let mut tau =
            VertexLayerMatrix::filled(dag.node_count(), base.total_layers as usize, params.tau0);
        let csr = dag.to_csr();
        let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
        let mut scratch = WalkScratch::new();
        let mut walk_rng = StdRng::seed_from_u64(rng.next_u64());
        let mut state = base.clone();
        for _ in 0..params.n_ants {
            state.copy_from(&base);
            let t = Instant::now();
            std::hint::black_box(perform_walk(
                &ctx,
                &tau,
                &mut state,
                &mut scratch,
                &mut walk_rng,
            ));
            walk.push(ms(t.elapsed()) * 1e3);
            let t = Instant::now();
            std::hint::black_box(state.incremental_objective());
            score.push(ms(t.elapsed()) * 1e3);
        }
        let t = Instant::now();
        tau.scale_all(1.0 - params.rho);
        evap.push(ms(t.elapsed()) * 1e3);

        let t = Instant::now();
        let cold = AcoLayering::new(params.clone()).run(&dag, &wm);
        let secs = t.elapsed().as_secs_f64();
        walks_per_s.push((cold.tours.len() * params.n_ants) as f64 / secs);
        cold_tours.push(cold.tours.len() as f64);
        // A tour improves when its best ant beats every earlier tour's.
        let mut incumbent = f64::NEG_INFINITY;
        for (i, tour) in cold.tours.iter().enumerate() {
            if i > 0 {
                tours_seen += 1;
                improving += usize::from(tour.best_objective > incumbent);
            }
            incumbent = incumbent.max(tour.best_objective);
        }
        // A warm run after a 1–3-edge edit, seeded as the scheduler seeds
        // it: the previous layering repaired onto the edited DAG.
        let mut ed = Editor::new(g.clone());
        ed.edit(&mut rng);
        if let Ok(edited) = Dag::from_edges(ed.g.n, &ed.g.edges) {
            let seed_layering = cold.layering.repaired(&edited);
            if let Ok(warm) =
                AcoLayering::new(params.clone()).run_seeded(&edited, &wm, &seed_layering)
            {
                warm_tours.push(warm.tours.len() as f64);
            }
        }
    }
    m.put("colony.walk_us", median(&walk), "us");
    m.put("colony.score_us", median(&score), "us");
    m.put("colony.evaporate_us", median(&evap), "us");
    m.put("colony.walks_per_s", median(&walks_per_s), "1/s");
    m.put(
        "colony.improving_tours_ratio",
        improving as f64 / tours_seen.max(1) as f64,
        "ratio",
    );
    m.put(
        "colony.cold_tours",
        cold_tours.iter().sum::<f64>() / cold_tours.len().max(1) as f64,
        "tours",
    );
    m.put(
        "colony.warm_tours",
        warm_tours.iter().sum::<f64>() / warm_tours.len().max(1) as f64,
        "tours",
    );
}

/// Ping round trips straight to a shard, and the same cached line
/// through the router and straight to a shard that holds it.
fn fleet_probes(line: &str, samples: usize, m: &mut Metrics) {
    let fleet = Fleet::start();
    let shard = &fleet.shards[0];
    let rtt = |transport: Transport, addr: String| -> f64 {
        let mut client = Client::connect_with(
            &addr,
            ClientConfig {
                transport,
                ..ClientConfig::default()
            },
        )
        .expect("connect to a shard");
        let times: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                client.ping().expect("ping");
                ms(t.elapsed())
            })
            .collect();
        median(&times)
    };
    m.put(
        "transport.tcp_rtt_ms",
        rtt(Transport::Tcp, shard.addr().to_string()),
        "ms",
    );
    m.put(
        "transport.http_rtt_ms",
        rtt(
            Transport::Http,
            shard.http_addr().expect("shard http").to_string(),
        ),
        "ms",
    );
    let hits = |addr: String| -> f64 {
        let mut conn = Connection::connect(&addr, Transport::Tcp).expect("connect");
        conn.exchange(line).expect("warm the cache");
        let times: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                let reply = conn.exchange(line).expect("cached line");
                let dt = ms(t.elapsed());
                assert!(
                    reply.contains(r#""source":"hit""#),
                    "a repeated line is a hit"
                );
                dt
            })
            .collect();
        median(&times)
    };
    // Shard 0 caches the line on first sight, so both paths then hit.
    let direct = hits(shard.addr().to_string());
    let routed = hits(fleet.router.addr().to_string());
    m.put("router.hit_ms", routed, "ms");
    m.put("direct.hit_ms", direct, "ms");
    m.put("router.hop_ms", routed - direct, "ms");
    fleet.stop();
}

const SLOPE_LAYERS: [&str; 6] = ["protocol", "graph", "digest", "orient", "solve", "metrics"];

/// Per-element time of each layer at 10⁴ and 10⁵ nodes on every
/// `large_graphs` shape; the slope is their ratio.
fn slopes(seed: u64, m: &mut Metrics) {
    let mut worst = [0.0f64; SLOPE_LAYERS.len()];
    let mut per_shape = Vec::new();
    for shape in gen::SHAPES {
        let mut per_elem = Vec::new();
        for (n, reps) in [(load::LARGE_N / 10, 5), (load::LARGE_N, 3)] {
            let g = gen::shape(shape, n, seed);
            let line = gen::layout_line("layout", "s", &g, Algo::Lpl);
            let elems = (g.n + g.edges.len()) as f64;
            let mut t = vec![Vec::new(); SLOPE_LAYERS.len()];
            for _ in 0..reps {
                let c = Instant::now();
                let Ok((Request::Layout(req), _)) = protocol::parse_request_envelope(&line) else {
                    panic!("slope input decodes");
                };
                let codec = ms(c.elapsed());
                let c = Instant::now();
                std::hint::black_box(DiGraph::from_edges(g.n, &g.edges).is_ok());
                let build = ms(c.elapsed());
                t[0].push(codec - build);
                t[1].push(build);
                let c = Instant::now();
                std::hint::black_box(req.digest());
                t[2].push(ms(c.elapsed()));
                let c = Instant::now();
                let oriented = antlayer_sugiyama::acyclic_orientation(&req.graph);
                t[3].push(ms(c.elapsed()));
                let wm = WidthModel::with_dummy_width(1.0);
                let c = Instant::now();
                let solution = req.algo.solver().solve(&oriented.dag, &wm, None);
                t[4].push(ms(c.elapsed()));
                let c = Instant::now();
                std::hint::black_box(LayeringMetrics::compute(
                    &oriented.dag,
                    &solution.layering,
                    &wm,
                ));
                t[5].push(ms(c.elapsed()));
            }
            per_elem.push(t.iter().map(|s| median(s) / elems).collect::<Vec<f64>>());
        }
        for (i, layer) in SLOPE_LAYERS.iter().enumerate() {
            let slope = per_elem[1][i] / per_elem[0][i];
            worst[i] = worst[i].max(slope);
            per_shape.push((format!("{layer}.slope.{shape}"), slope));
        }
    }
    for (i, layer) in SLOPE_LAYERS.iter().enumerate() {
        m.put(format!("{layer}.slope"), worst[i], "ratio");
    }
    for (name, slope) in per_shape {
        m.put(name, slope, "ratio");
    }
}

/// The crates `lines.<crate>` counts; a crate that is gone counts 0.
const CRATES: [&str; 13] = [
    "bench", "cli", "client", "core", "datasets", "graph", "layering", "obs", "parallel",
    "reactor", "router", "service", "sugiyama",
];

/// Non-blank, non-test Rust lines of each crate under `crates/`, read
/// from the checkout: a file is counted up to its `#[cfg(test)]` module.
fn code_lines(m: &mut Metrics) {
    let mut total = 0;
    for name in CRATES {
        let mut stack = vec![std::path::Path::new("crates").join(name).join("src")];
        let mut lines = 0usize;
        while let Some(p) = stack.pop() {
            if p.is_dir() {
                stack.extend(
                    std::fs::read_dir(&p)
                        .into_iter()
                        .flatten()
                        .flatten()
                        .map(|e| e.path()),
                );
            } else if p.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&p).unwrap_or_default();
                lines += text
                    .lines()
                    .take_while(|l| !l.starts_with("#[cfg(test)]"))
                    .filter(|l| !l.trim().is_empty())
                    .count();
            }
        }
        total += lines;
        m.put(format!("lines.{name}"), lines as f64, "lines");
    }
    m.put("lines.total", total as f64, "lines");
}

/// One sampled request of the workload, with the warm edit that
/// follows it when the workload edits that request.
struct Sample {
    line: String,
    g: Graph,
    algo: Algo,
    edit: Option<Edit>,
}

fn samples(workload: &str, seed: u64) -> (Vec<Sample>, Vec<Graph>, usize) {
    let mut rng = Rng::new(gen::mix(seed, 9_000));
    let edit = |g: &Graph, rng: &mut Rng| {
        let mut ed = Editor::new(g.clone());
        Some(ed.edit(rng))
    };
    match workload {
        "paper_corpus" => {
            let corpus = gen::corpus(seed);
            let picked: Vec<Sample> = (0..corpus.len())
                .step_by(5)
                .map(|i| {
                    let g = corpus[i].clone();
                    let algo = Algo::Aco(load::corpus_seed(seed, 0, i));
                    let edit = if (i / 5) % 16 == 0 {
                        edit(&g, &mut rng)
                    } else {
                        None
                    };
                    Sample {
                        line: gen::layout_line("layout", "t", &g, algo),
                        g,
                        algo,
                        edit,
                    }
                })
                .collect();
            let colony: Vec<Graph> = corpus.iter().step_by(20).cloned().collect();
            let max_n = corpus.iter().map(|g| g.n).max().unwrap_or(0);
            (picked, colony, max_n)
        }
        "large_graphs" => {
            let picked = gen::SHAPES
                .iter()
                .map(|s| {
                    let g = gen::shape(s, load::LARGE_N, seed);
                    // A forward pair of the shape, as the workload adds.
                    let add = vec![gen::fresh_forward_edge(g.n, &g.edge_set(), &mut rng)];
                    Sample {
                        line: gen::layout_line("layout", "t", &g, Algo::Lpl),
                        g,
                        algo: Algo::Lpl,
                        edit: Some((add, vec![])),
                    }
                })
                .collect();
            // The colony never runs on these inputs; its phases are timed
            // on corpus graphs instead.
            let colony = gen::corpus(seed).into_iter().step_by(20).collect();
            (picked, colony, load::LARGE_N)
        }
        _ => {
            let picked: Vec<Sample> = (0..48u64)
                .map(|k| {
                    let mut r = Rng::new(gen::mix(seed, 1_000 + k));
                    let g = gen::edit_graph(k, &mut r);
                    let algo = Algo::Aco(r.next_u64() >> 16);
                    let edit = edit(&g, &mut rng);
                    Sample {
                        line: gen::layout_line("layout", "t", &g, algo),
                        g,
                        algo,
                        edit,
                    }
                })
                .collect();
            let colony: Vec<Graph> = picked.iter().map(|s| s.g.clone()).collect();
            let max_n = colony.iter().map(|g| g.n).max().unwrap_or(0);
            (picked, colony, max_n)
        }
    }
}

pub fn run(workload: &str, run: &Run) -> Outcome {
    let (picked, colony_graphs, max_n) = samples(workload, run.seed);
    let sched = Scheduler::new(SchedulerConfig {
        threads: 1,
        cache_capacity: 64,
        ..SchedulerConfig::default()
    });
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut m = Metrics::default();
    let mut unattributed = Vec::new();
    let mut overhead = Vec::new();
    let started = Instant::now();
    for (
        k,
        Sample {
            line,
            g,
            algo,
            edit,
        },
    ) in picked.iter().enumerate()
    {
        let request = k as u64;
        let Some(base) = replay_layout(&mut tr, &sched, &mut counts, request, line, g) else {
            continue;
        };
        // One request in four (every large one) is also sent untraced
        // through `ServiceCore::respond`, and replayed without spans.
        if k % 4 == 0 || workload == "large_graphs" {
            unattributed.push(untraced(line) - tr.attributed(request));
            let root = tr
                .spans
                .iter()
                .rposition(|s| s.request == request && s.parent.is_none());
            let traced = root.map_or(f64::NAN, |r| tr.spans[r].end - tr.spans[r].start);
            overhead.push(traced / replay_plain(line, g, &base));
        }
        replay_hit(&mut tr, &sched, &mut counts, request, line);
        if let Some((add, remove)) = edit {
            let delta = gen::delta_line("t", &base.result.digest.to_string(), add, remove, *algo);
            replay_warm(&mut tr, &sched, &mut counts, request, &base, &delta);
        }
    }
    let replay_s = started.elapsed().as_secs_f64();
    let names = tr.by_name();
    let med = |name: &str| names.get(name).map_or(f64::NAN, |v| median(v));
    let total = |name: &str| names.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    m.put("protocol.json_ms", med("protocol.json"), "ms");
    m.put("protocol.request_ms", med("protocol.request"), "ms");
    m.put("protocol.encode_ms", med("protocol.encode"), "ms");
    let codec_ms = total("protocol.json") + total("protocol.request");
    m.put(
        "protocol.mb_per_s",
        counts.request_bytes as f64 / 1e6 / (codec_ms / 1e3),
        "MB/s",
    );
    m.put("graph.build_ms", med("graph.build"), "ms");
    m.put("graph.delta_ms", med("graph.delta"), "ms");
    m.put("digest.ms", med("digest"), "ms");
    m.put("scheduler.hit_ms", med("scheduler.hit"), "ms");
    // A mean: the program reports queue waits in whole microseconds.
    let queue_ms = counts.queue_ms.iter().sum::<f64>() / counts.queue_ms.len().max(1) as f64;
    m.put("scheduler.queue_wait_ms", queue_ms, "ms");
    m.put(
        "cache.hit_ratio",
        counts.hits as f64 / counts.replies.max(1) as f64,
        "ratio",
    );
    m.put("orient.ms", med("orient"), "ms");
    m.put(
        "orient.reversed",
        counts.reversed.iter().sum::<f64>() / counts.reversed.len().max(1) as f64,
        "edges",
    );
    m.put("solve.ms", med("solve"), "ms");
    m.put("metrics.ms", med("metrics"), "ms");
    m.put("repair.ms", med("repair"), "ms");
    m.put("unattributed_ms", median(&unattributed), "ms");
    m.put("trace.overhead_ratio", median(&overhead), "ratio");
    // Where a request's traced time goes, as shares of the whole.
    let layer_total: f64 = names
        .iter()
        .filter(|(n, _)| **n != "request" && **n != "scheduler.hit")
        .map(|(_, v)| v.iter().sum::<f64>())
        .sum();
    for (name, v) in &names {
        if *name != "request" && *name != "scheduler.hit" {
            eprintln!(
                "{name:>18}: {:6.1}% of replayed time, p90 {:.4} ms",
                100.0 * v.iter().sum::<f64>() / layer_total,
                quantile(v, 0.9)
            );
        }
    }
    eprintln!("replayed {} requests in {replay_s:.2} s", picked.len());

    let colony_seed = gen::mix(run.seed, 7_100) >> 16;
    colony(&colony_graphs, colony_seed, &mut m);
    m.put("colony.trail_mb", (max_n * max_n * 8) as f64 / 1e6, "MB");
    let (probe_line, samples) = match picked.first() {
        Some(s) => (s.line.clone(), if s.g.n > 10_000 { 12 } else { 300 }),
        None => (String::new(), 0),
    };
    fleet_probes(&probe_line, samples, &mut m);
    slopes(run.seed, &mut m);
    code_lines(&mut m);

    let path =
        std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{}.json", run.seed));
    match tr.write(&path) {
        Ok(()) => eprintln!("{} spans written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Outcome {
        correct: counts.wrong == 0 && m.missing().is_empty(),
        attempted: counts.attempted,
        failed: counts.failed,
        metrics: m,
    }
}
