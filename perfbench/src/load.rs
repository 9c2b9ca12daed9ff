//! The three workloads, timed end to end from outside the program.
//!
//! Every load is a closed loop (a client sends its next request only
//! after the previous reply), from at most two client threads, because
//! every caller of this service waits for its reply. Each workload
//! produces all four reply classes — cold, warm, hit and live push — on
//! its own inputs, in the mix that stresses its layers:
//!
//! * `paper_corpus`: cold colony layouts of the paper's corpus, with a
//!   warm edit, a revisit and a push after every 16th graph;
//! * `large_graphs`: 10⁵-node `lpl` layouts, each sent twice (cold,
//!   then hit), then edited (warm) and pushed into a live session;
//! * `edit_fleet`: edit sessions through a router over two shards, and
//!   a stream of live pushes on one shard.

use crate::check::{self, Claim, Shape};
use crate::gen::{self, Algo, Graph, Relabel, Rng};
use crate::report::{self, Metrics};
use antlayer_client::{Connection, Transport};
use antlayer_router::{Router, RouterConfig, RouterHandle};
use antlayer_service::protocol::{self, Json, LayoutReply, Response, SessionUpdate};
use antlayer_service::{SchedulerConfig, Server, ServerConfig, ServerHandle, ServiceCore};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// What a run was asked for.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// When `main` started: set-up is timed from here.
    pub started: Instant,
}

/// What a run measured.
pub struct Outcome {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One client's samples and counts.
#[derive(Default)]
pub struct Tally {
    pub cold: Vec<f64>,
    pub warm: Vec<f64>,
    pub hit: Vec<f64>,
    pub push: Vec<f64>,
    /// Request/reply layouts completed (cold, warm and hit).
    pub layouts: u64,
    /// H+W of the replies `mean_cost` averages.
    pub costs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Replies the program computed (layouts, edits, pushes, opens).
    pub computed: u64,
    /// Replies served from the cache.
    pub hits: u64,
    pub wrong: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.cold.extend(o.cold);
        self.warm.extend(o.warm);
        self.hit.extend(o.hit);
        self.push.extend(o.push);
        self.costs.extend(o.costs);
        self.layouts += o.layouts;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.computed += o.computed;
        self.hits += o.hits;
        self.wrong += o.wrong;
    }

    /// An operation that got no usable reply.
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("{what} failed: {e}");
        }
        self.failed += 1;
    }

    /// Records a failed output check.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            if self.wrong < 5 {
                eprintln!("check failed ({what}): {e}");
            }
            self.wrong += 1;
        }
    }

    fn count_source(&mut self, source: &str) {
        if source == "hit" {
            self.hits += 1;
        } else {
            self.computed += 1;
        }
    }
}

pub fn decode_layout(text: &str) -> Result<LayoutReply, String> {
    match protocol::parse_response(text)?.0 {
        Response::Layout(r) => Ok(*r),
        Response::Error(e) => Err(format!("{}: {}", e.kind.wire_name(), e.message)),
        _ => Err("not a layout reply".into()),
    }
}

pub fn claim(r: &LayoutReply) -> Claim<'_> {
    Claim {
        layers: &r.layers,
        height: r.height,
        width: r.width,
        dummies: r.dummies,
        reversed_edges: r.reversed_edges,
    }
}

/// How one request/reply layout is sent: into an in-process core, or
/// over a connection.
pub enum Wire<'a> {
    Core(&'a ServiceCore),
    Conn(&'a mut Connection),
}

impl Wire<'_> {
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        match self {
            Wire::Core(core) => Ok(core.respond(line)),
            Wire::Conn(conn) => conn.exchange(line).map_err(|e| e.to_string()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Cold,
    Warm,
    Hit,
}

/// Sends one layout line, times it, checks its source and layers
/// against `g`, and files the latency under `class`. Returns the reply
/// and the recomputed shape, or `None` when the operation failed.
fn layout_op(
    wire: &mut Wire<'_>,
    line: &str,
    g: &Graph,
    (class, algo): (Class, Algo),
    tally: &mut Tally,
) -> Option<(LayoutReply, Shape)> {
    tally.attempted += 1;
    let t = Instant::now();
    let text = wire.exchange(line);
    let dt = ms(t.elapsed());
    let reply = match text.and_then(|t| decode_layout(&t)) {
        Ok(r) => r,
        Err(e) => {
            tally.fail("layout", e);
            return None;
        }
    };
    tally.layouts += 1;
    tally.count_source(&reply.source);
    let want = match class {
        Class::Cold => "computed",
        Class::Warm => "warm",
        Class::Hit => "hit",
    };
    tally.check("source", check::source(&reply.source, want));
    match class {
        Class::Cold => tally.cold.push(dt),
        Class::Warm => tally.warm.push(dt),
        Class::Hit => tally.hit.push(dt),
    }
    match check::layout(g, &claim(&reply), 1.0) {
        Ok((layer_of, shape)) => {
            if matches!(algo, Algo::Lpl) {
                tally.check("lpl height", check::lpl_height(g, &layer_of, shape.height));
            }
            Some((reply, shape))
        }
        Err(e) => {
            tally.check("layout", Err(e));
            None
        }
    }
}

/// An edge edit: the pairs it adds and the pairs it removes.
pub type Edit = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// A graph under edit: removals only take edges it started with, and
/// additions only pairs it never held, so no edit returns it to an
/// earlier version (whose digest the cache would already hold).
pub struct Editor {
    pub g: Graph,
    used: HashSet<(u32, u32)>,
    removable: Vec<(u32, u32)>,
}

impl Editor {
    pub fn new(g: Graph) -> Editor {
        Editor {
            used: g.edge_set(),
            removable: g.edges.clone(),
            g,
        }
    }

    /// Adds one forward pair the graph never held.
    pub fn add_one(&mut self, rng: &mut Rng) -> (u32, u32) {
        let e = gen::fresh_forward_edge(self.g.n, &self.used, rng);
        self.used.insert(e);
        self.g.edges.push(e);
        e
    }

    /// A 1–3-edge edit: each edge removed (1 in 3) or added.
    pub fn edit(&mut self, rng: &mut Rng) -> Edit {
        let (mut add, mut remove) = (Vec::new(), Vec::new());
        for _ in 0..rng.between(1, 3) {
            if rng.below(3) == 0 && self.removable.len() > 1 {
                let e = self.removable.swap_remove(rng.below(self.removable.len()));
                remove.push(e);
            } else {
                add.push(self.add_one(rng));
            }
        }
        if !remove.is_empty() {
            self.g.edges.retain(|e| !remove.contains(e));
        }
        (add, remove)
    }
}

/// A streaming edit session on a live listener, kept by its own client
/// copy of the graph and layers. Several sessions may share one
/// connection; the closed loop keeps one push in flight at a time.
pub struct LiveSession {
    id: String,
    ed: Editor,
    layers: Vec<Vec<u32>>,
    version: u64,
    /// Whether every edge runs from a lower to a higher id (a DAG that
    /// add-only edits keep acyclic, so nothing may point upward).
    forward_only: bool,
}

impl LiveSession {
    /// Opens a session (one computed layout) on `conn`.
    pub fn open(conn: &mut Connection, id: String, g: Graph, algo: Algo) -> Result<Self, String> {
        let line = gen::layout_line("session_open", &id, &g, algo);
        let text = conn.exchange(&line).map_err(|e| e.to_string())?;
        let (version, reply) = match protocol::parse_response(&text)?.0 {
            Response::SessionOpened { version, reply } => (version, *reply),
            Response::Error(e) => return Err(format!("session_open: {}", e.message)),
            _ => return Err("session_open: unexpected reply".into()),
        };
        check::layout(&g, &claim(&reply), 1.0)?;
        Ok(LiveSession {
            id,
            forward_only: g.edges.iter().all(|&(u, v)| u < v),
            ed: Editor::new(g),
            layers: reply.layers,
            version,
        })
    }

    /// Closes the session; the ack must echo the last pushed version.
    pub fn close(self, conn: &mut Connection) -> Result<(), String> {
        let line = format!(r#"{{"v":2,"op":"session_close","id":"{}"}}"#, self.id);
        let text = conn.exchange(&line).map_err(|e| e.to_string())?;
        match protocol::parse_response(&text)?.0 {
            Response::SessionClosed { version } if version == self.version => Ok(()),
            _ => Err(format!("session_close: unexpected reply {text}")),
        }
    }

    fn recv_update(&self, conn: &mut Connection) -> Result<SessionUpdate, String> {
        let text = conn.recv().map_err(|e| e.to_string())?;
        let (response, envelope) = protocol::parse_response(&text)?;
        if envelope.id.as_ref().and_then(Json::as_str) != Some(self.id.as_str()) {
            return Err(format!("push for another session: {:?}", envelope.id));
        }
        match response {
            Response::SessionUpdate(u) => Ok(*u),
            Response::Error(e) => Err(format!("push: {}", e.message)),
            _ => Err("push: unexpected frame".into()),
        }
    }

    /// One `session_delta` adding a fresh edge, then its push: timed from
    /// the send until the update is applied to the client's layers.
    pub fn push(&mut self, conn: &mut Connection, rng: &mut Rng, tally: &mut Tally) {
        tally.attempted += 1;
        let e = self.ed.add_one(rng);
        let line = gen::session_delta_line(&self.id, &[e]);
        let t = Instant::now();
        let update = conn
            .send(&line)
            .map_err(|e| e.to_string())
            .and_then(|()| self.recv_update(conn));
        let update = match update {
            Ok(u) => u,
            Err(e) => return tally.fail("push", e),
        };
        tally.check(
            "push version",
            check::next_version(self.version, update.version),
        );
        self.version = update.version;
        self.layers.resize(update.height as usize, Vec::new());
        let mut in_range = true;
        for (i, ids) in update.changed {
            match self.layers.get_mut(i as usize) {
                Some(layer) => *layer = ids,
                None => in_range = false,
            }
        }
        tally.push.push(ms(t.elapsed()));
        tally.count_source(&update.source);
        if !in_range {
            return tally.check("push", Err("changed layer above height".into()));
        }
        let checked = check::partition(&self.ed.g, &self.layers).and_then(|layer_of| {
            if self.layers.iter().any(Vec::is_empty) {
                return Err("push left an empty layer".into());
            }
            let up = check::upward_edges(&self.ed.g, &layer_of);
            if self.forward_only && up > 0 {
                return Err(format!("{up} edges of a DAG point upward"));
            }
            Ok(())
        });
        tally.check("push layers", checked);
    }
}

fn server(threads: usize, live: bool, http: bool, cache_capacity: usize) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: http.then(|| "127.0.0.1:0".into()),
        live_addr: live.then(|| "127.0.0.1:0".into()),
        scheduler: SchedulerConfig {
            threads,
            cache_capacity,
            // One shard keeps the LRU global, so a small cache still
            // holds the last few bases of every edit chain.
            cache_shards: if cache_capacity < 256 { 1 } else { 8 },
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    })
    .and_then(Server::spawn)
    .expect("bind a loopback server")
}

fn connect(addr: impl ToString, transport: Transport) -> Connection {
    Connection::connect(&addr.to_string(), transport).expect("connect over loopback")
}

/// `computed` and `cache_hits` as the program counts them.
#[derive(Clone, Copy)]
pub struct Counters {
    pub computed: u64,
    pub hits: u64,
}

fn core_counters(core: &ServiceCore) -> Counters {
    let c = core.scheduler().counters();
    Counters {
        computed: c.computed,
        hits: c.cache.hits,
    }
}

/// The fleet's counters from the router's aggregated `stats`, asked
/// on a connection of their own outside the timed phase.
fn fleet_counters(fleet: &Fleet) -> Counters {
    let mut router = connect(fleet.router_addr(Transport::Tcp), Transport::Tcp);
    let text = router.exchange(r#"{"op":"stats"}"#).expect("router stats");
    let v = protocol::parse(&text).expect("stats is JSON");
    let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    Counters {
        computed: num("computed"),
        hits: num("cache_hits"),
    }
}

fn finish(
    run: &Run,
    setup: Duration,
    timed: Duration,
    tally: Tally,
    before: Counters,
    after: Counters,
    mean_cost: f64,
) -> Outcome {
    let mut tally = tally;
    tally.check(
        "computed tally",
        check::tallies(
            "computed",
            tally.computed,
            after.computed.wrapping_sub(before.computed),
        ),
    );
    tally.check(
        "hit tally",
        check::tallies("hits", tally.hits, after.hits.wrapping_sub(before.hits)),
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup.as_secs_f64(), "s");
    m.put(
        "layouts_per_s",
        tally.layouts as f64 / timed.as_secs_f64(),
        "layouts/s",
    );
    m.latency("cold", &tally.cold);
    m.latency("warm", &tally.warm);
    m.latency("hit", &tally.hit);
    m.latency("push", &tally.push);
    m.put("mean_cost", mean_cost, "H_plus_W");
    m.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    eprintln!(
        "seed {}: {} layouts and {} pushes in {:.2} s (asked {} s)",
        run.seed,
        tally.layouts,
        tally.push.len(),
        timed.as_secs_f64(),
        run.seconds
    );
    Outcome {
        correct: tally.wrong == 0 && m.missing().is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    }
}

/// The set-up time: from process start to the end of warm-up, less the
/// benchmark's own input generation (reported on stderr instead).
fn setup_time(run: &Run, generation: Duration) -> Duration {
    let setup = run.started.elapsed().saturating_sub(generation);
    eprintln!(
        "inputs generated in {:.3} s; set-up {:.3} s",
        generation.as_secs_f64(),
        setup.as_secs_f64()
    );
    setup
}

/// Every 16th corpus graph a client lays out is followed by a warm
/// edit, a revisit and a push.
const EDIT_EVERY: usize = 16;
/// Pushes before a live session is closed and another opened, so the
/// session graph stays paper-sized.
const PUSHES_PER_SESSION: usize = 48;

/// The colony seed of corpus graph `i` in pass `pass`: fresh per pass,
/// so every layout is a cold compute.
pub fn corpus_seed(seed: u64, pass: u64, i: usize) -> u64 {
    gen::mix(seed ^ (pass << 40), i as u64) >> 16
}

pub fn paper_corpus(run: &Run) -> Outcome {
    let t = Instant::now();
    let corpus = gen::corpus(run.seed);
    let generation = t.elapsed();

    let srv = server(2, true, false, SchedulerConfig::default().cache_capacity);
    let core = ServiceCore::new(srv.scheduler().clone());
    let live = srv.live_addr().expect("live listener").to_string();
    // Warm-up: 512 cold layouts and a session with 4 pushes per client,
    // under colony seeds the timed passes never use.
    let sessions: Vec<(Connection, LiveSession)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let (core, corpus, live) = (&core, &corpus, &live);
                s.spawn(move || {
                    let mut scratch = Tally::default();
                    for i in (t..1024).step_by(2) {
                        let algo = Algo::Aco(corpus_seed(!run.seed, 0, i));
                        let line = gen::layout_line("layout", "w", &corpus[i], algo);
                        let mut wire = Wire::Core(core);
                        layout_op(
                            &mut wire,
                            &line,
                            &corpus[i],
                            (Class::Cold, algo),
                            &mut scratch,
                        );
                    }
                    let mut rng = Rng::new(gen::mix(run.seed, 50 + t as u64));
                    let mut conn = connect(live, Transport::Tcp);
                    let mut session =
                        open_corpus_session(&mut conn, corpus, run.seed, t, 0, &mut rng);
                    for _ in 0..4 {
                        session.push(&mut conn, &mut rng, &mut scratch);
                    }
                    assert!(scratch.failed == 0 && scratch.wrong == 0, "warm-up failed");
                    (conn, session)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm-up client"))
            .collect()
    });
    let setup = setup_time(run, generation);

    let before = core_counters(&core);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(run.seconds);
    let mut pass0_cost = vec![0.0; corpus.len()];
    let tallies: Vec<(Tally, Vec<(usize, f64)>)> = std::thread::scope(|s| {
        let workers: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(t, (mut conn, mut session))| {
                let (core, corpus) = (&core, &corpus);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut pass0 = Vec::new();
                    let mut rng = Rng::new(gen::mix(run.seed, 60 + t as u64));
                    let (mut pushes, mut opened) = (0, 1);
                    'run: for pass in 0u64.. {
                        for i in (t..corpus.len()).step_by(2) {
                            if Instant::now() >= deadline {
                                break 'run;
                            }
                            let g = &corpus[i];
                            let algo = Algo::Aco(corpus_seed(run.seed, pass, i));
                            let line = gen::layout_line("layout", "c", g, algo);
                            let mut wire = Wire::Core(core);
                            let Some((reply, shape)) =
                                layout_op(&mut wire, &line, g, (Class::Cold, algo), &mut tally)
                            else {
                                continue;
                            };
                            tally.check("aco vs lpl", check::aco_no_worse_than_lpl(g, &shape, 1.0));
                            if pass == 0 {
                                pass0.push((i, shape.cost()));
                            }
                            if (i / 2) % EDIT_EVERY != 0 {
                                continue;
                            }
                            let mut ed = Editor::new(g.clone());
                            let (add, remove) = ed.edit(&mut rng);
                            let delta = gen::delta_line("d", &reply.digest, &add, &remove, algo);
                            layout_op(&mut wire, &delta, &ed.g, (Class::Warm, algo), &mut tally);
                            if let Some((again, _)) =
                                layout_op(&mut wire, &line, g, (Class::Hit, algo), &mut tally)
                            {
                                tally.check(
                                    "revisit",
                                    check::revisit(&again.source, &again.layers, &reply.layers),
                                );
                            }
                            session.push(&mut conn, &mut rng, &mut tally);
                            pushes += 1;
                            if pushes % PUSHES_PER_SESSION == 0 {
                                tally.attempted += 2;
                                match session.close(&mut conn) {
                                    Ok(()) => {
                                        session = open_corpus_session(
                                            &mut conn, corpus, run.seed, t, opened, &mut rng,
                                        );
                                        tally.computed += 1;
                                        opened += 1;
                                    }
                                    Err(e) => {
                                        tally.fail("session_close", e);
                                        break 'run;
                                    }
                                }
                            }
                        }
                    }
                    (tally, pass0)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("corpus client"))
            .collect()
    });
    let timed = started.elapsed();
    let after = core_counters(&core);
    let mut tally = Tally::default();
    let mut complete = 0;
    for (t, pass0) in tallies {
        tally.merge(t);
        for (i, cost) in pass0 {
            pass0_cost[i] = cost;
            complete += 1;
        }
    }
    // Over the first pass only, whose colony seeds every run repeats, so
    // the same seed gives the same mean.
    let mean_cost = if complete == corpus.len() {
        pass0_cost.iter().sum::<f64>() / corpus.len() as f64
    } else {
        eprintln!(
            "the first pass did not complete ({complete} of {})",
            corpus.len()
        );
        f64::NAN
    };
    drop(core);
    srv.shutdown();
    finish(run, setup, timed, tally, before, after, mean_cost)
}

/// A live session on a corpus graph of 100 nodes (the largest group),
/// picked by client, session number and seed.
fn open_corpus_session(
    conn: &mut Connection,
    corpus: &[Graph],
    seed: u64,
    client: usize,
    number: usize,
    rng: &mut Rng,
) -> LiveSession {
    let biggest: Vec<&Graph> = corpus.iter().filter(|g| g.n == 100).collect();
    let g = biggest[rng.below(biggest.len())].clone();
    let id = format!("s{client}-{number}");
    let algo = Algo::Aco(gen::mix(seed, 70 + (client * 1_000_003 + number) as u64) >> 16);
    LiveSession::open(conn, id, g, algo).expect("open a corpus session")
}

/// Nodes of a `large_graphs` input.
pub const LARGE_N: usize = 100_000;

pub fn large_graphs(run: &Run) -> Outcome {
    let t = Instant::now();
    let shapes: Vec<Graph> = gen::SHAPES
        .iter()
        .map(|s| gen::shape(s, LARGE_N, run.seed))
        .collect();
    let edge_sets: Vec<HashSet<(u32, u32)>> = shapes.iter().map(Graph::edge_set).collect();
    let generation = t.elapsed();

    // A cache of 16 entries holds the last round (three entries per
    // shape) at several MB per 10⁵-node result.
    let srv = server(2, true, false, 16);
    let core = ServiceCore::new(srv.scheduler().clone());
    let live = srv.live_addr().expect("live listener").to_string();
    // Warm-up: one live session per shape, then one whole round under a
    // relabeling the timed rounds never use, so the allocator has seen
    // every request size before the clock starts.
    let mut scratch = Tally::default();
    let mut conn = connect(&live, Transport::Tcp);
    let mut sessions: Vec<LiveSession> = shapes
        .iter()
        .enumerate()
        .map(|(i, g)| {
            LiveSession::open(&mut conn, format!("L{i}"), g.clone(), Algo::Lpl)
                .expect("open a large session")
        })
        .collect();
    let mut large = Large {
        core: &core,
        shapes: &shapes,
        edge_sets: &edge_sets,
        rng: Rng::new(gen::mix(run.seed, 80)),
    };
    let live = (&mut conn, &mut sessions[..]);
    large.round(!run.seed, live, &mut scratch);
    assert!(scratch.failed == 0 && scratch.wrong == 0, "warm-up failed");
    let setup = setup_time(run, generation);

    let before = core_counters(&core);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(run.seconds);
    let mut tally = Tally::default();
    // A round lays out every shape once, so each run attempts whole
    // rounds of the same operations; `mean_cost` averages round 0.
    let round0 = large.round(
        gen::mix(run.seed, 100),
        (&mut conn, &mut sessions),
        &mut tally,
    );
    for round in 1u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let live = (&mut conn, &mut sessions[..]);
        large.round(gen::mix(run.seed, 100 + round), live, &mut tally);
    }
    let timed = started.elapsed();
    let after = core_counters(&core);
    let mean_cost = if round0.len() == shapes.len() {
        round0.iter().sum::<f64>() / round0.len() as f64
    } else {
        f64::NAN
    };
    drop(sessions);
    drop(core);
    srv.shutdown();
    finish(run, setup, timed, tally, before, after, mean_cost)
}

/// The inputs and client state of `large_graphs`.
struct Large<'a> {
    core: &'a ServiceCore,
    shapes: &'a [Graph],
    edge_sets: &'a [HashSet<(u32, u32)>],
    rng: Rng,
}

impl Large<'_> {
    /// One round: every shape, relabeled under `salt`, laid out cold,
    /// re-sent twice as a hit, edited warm, and pushed into its live
    /// session.
    /// Returns the H+W of each cold reply.
    fn round(
        &mut self,
        salt: u64,
        (conn, sessions): (&mut Connection, &mut [LiveSession]),
        tally: &mut Tally,
    ) -> Vec<f64> {
        let mut costs = Vec::new();
        let mut wire = Wire::Core(self.core);
        for (s, base) in self.shapes.iter().enumerate() {
            let relabel = Relabel::new(LARGE_N, gen::mix(salt, s as u64));
            let g = relabel.apply(base);
            let line = gen::layout_line("layout", "c", &g, Algo::Lpl);
            let cold = layout_op(&mut wire, &line, &g, (Class::Cold, Algo::Lpl), tally);
            let Some((reply, shape)) = cold else {
                continue;
            };
            costs.push(shape.cost());
            // Two revisits: otherwise the hit class would rest on the
            // same few samples per run as the cold one, which cost twice
            // as much each.
            for _ in 0..2 {
                let hit = layout_op(&mut wire, &line, &g, (Class::Hit, Algo::Lpl), tally);
                if let Some((again, _)) = hit {
                    let first = &reply.layers;
                    tally.check(
                        "revisit",
                        check::revisit(&again.source, &again.layers, first),
                    );
                }
            }
            // Fresh forward pairs of the unlabeled shape, relabeled.
            let (mut add, want) = (Vec::new(), self.rng.between(1, 3));
            while add.len() < want {
                let (u, v) = gen::fresh_forward_edge(LARGE_N, &self.edge_sets[s], &mut self.rng);
                let e = (relabel.map(u), relabel.map(v));
                if !add.contains(&e) {
                    add.push(e);
                }
            }
            let mut edited = g;
            edited.edges.extend_from_slice(&add);
            let delta = gen::delta_line("d", &reply.digest, &add, &[], Algo::Lpl);
            layout_op(&mut wire, &delta, &edited, (Class::Warm, Algo::Lpl), tally);
            sessions[s].push(conn, &mut self.rng, tally);
        }
        costs
    }
}

/// Edits per `edit_fleet` session, and how often one revisits.
const EDITS_PER_SESSION: usize = 8;
const REVISIT_EVERY: usize = 3;
/// Client-A sessions whose replies `mean_cost` averages.
const COST_SESSIONS: u64 = 128;

/// The routed fleet of `edit_fleet`: two one-worker shards behind a
/// router; shard 0 also serves live sessions.
pub struct Fleet {
    pub shards: Vec<ServerHandle>,
    pub router: RouterHandle,
}

impl Fleet {
    pub fn start() -> Fleet {
        let shards = vec![server(1, true, true, 4096), server(1, false, true, 4096)];
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .and_then(Router::spawn)
        .expect("bind the router");
        Fleet { shards, router }
    }

    pub fn stop(self) {
        self.router.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }

    fn live_addr(&self) -> String {
        self.shards[0].live_addr().expect("live shard").to_string()
    }

    fn router_addr(&self, transport: Transport) -> String {
        match transport {
            Transport::Tcp => self.router.addr().to_string(),
            Transport::Http => self.router.http_addr().expect("router http").to_string(),
        }
    }
}

/// One client-A session through the router: a cold open, a chain of
/// warm edits, and every third edit a revisit of an earlier version.
fn fleet_session(fleet: &Fleet, seed: u64, k: u64, tally: &mut Tally, costs: bool) {
    let transport = if k.is_multiple_of(2) {
        Transport::Tcp
    } else {
        Transport::Http
    };
    let mut conn = connect(fleet.router_addr(transport), transport);
    let mut rng = Rng::new(gen::mix(seed, 1_000 + k));
    let mut ed = Editor::new(gen::edit_graph(k, &mut rng));
    let algo = Algo::Aco(rng.next_u64() >> 16);
    let mut wire = Wire::Conn(&mut conn);
    let line = gen::layout_line("layout", "o", &ed.g, algo);
    let Some((reply, shape)) = layout_op(&mut wire, &line, &ed.g, (Class::Cold, algo), tally)
    else {
        return;
    };
    tally.check(
        "aco vs lpl",
        check::aco_no_worse_than_lpl(&ed.g, &shape, 1.0),
    );
    if costs {
        tally.costs.push(shape.cost());
    }
    let mut versions = vec![(ed.g.clone(), reply.layers)];
    let mut digest = reply.digest;
    for e in 1..=EDITS_PER_SESSION {
        let (add, remove) = ed.edit(&mut rng);
        let delta = gen::delta_line("d", &digest, &add, &remove, algo);
        let Some((reply, shape)) = layout_op(&mut wire, &delta, &ed.g, (Class::Warm, algo), tally)
        else {
            return;
        };
        if costs {
            tally.costs.push(shape.cost());
        }
        digest = reply.digest;
        versions.push((ed.g.clone(), reply.layers));
        if e % REVISIT_EVERY == 0 {
            let (g, first) = &versions[rng.below(versions.len() - 1)];
            let line = gen::layout_line("layout", "r", g, algo);
            if let Some((again, _)) = layout_op(&mut wire, &line, g, (Class::Hit, algo), tally) {
                tally.check(
                    "revisit",
                    check::revisit(&again.source, &again.layers, first),
                );
            }
        }
    }
}

fn fleet_live_session(conn: &mut Connection, seed: u64, number: u64) -> LiveSession {
    let mut rng = Rng::new(gen::mix(seed, 500_000 + number));
    let g = gen::edit_graph(number, &mut rng);
    let algo = Algo::Aco(rng.next_u64() >> 16);
    LiveSession::open(conn, format!("B{number}"), g, algo).expect("open a fleet session")
}

pub fn edit_fleet(run: &Run) -> Outcome {
    // Inputs are generated per session from the seed, inside the loops.
    let fleet = Fleet::start();
    // Warm-up: eight sessions, four over each transport, then sixteen
    // pushes, under a seed the timed phase never uses.
    let mut scratch = Tally::default();
    for k in 0..8 {
        fleet_session(&fleet, !run.seed, k, &mut scratch, false);
    }
    let mut live = connect(fleet.live_addr(), Transport::Tcp);
    let mut session = fleet_live_session(&mut live, !run.seed, 0);
    let mut rng = Rng::new(gen::mix(run.seed, 90));
    for _ in 0..16 {
        session.push(&mut live, &mut rng, &mut scratch);
    }
    assert!(scratch.failed == 0 && scratch.wrong == 0, "warm-up failed");
    let setup = setup_time(run, Duration::ZERO);

    let before = fleet_counters(&fleet);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(run.seconds);
    let (a, b) = std::thread::scope(|s| {
        let fleet = &fleet;
        let a = s.spawn(move || {
            let mut tally = Tally::default();
            // The first 128 sessions feed `mean_cost`, the same in every
            // run of a seed that gets that far.
            for k in 0u64.. {
                if Instant::now() >= deadline {
                    break;
                }
                fleet_session(fleet, run.seed, k, &mut tally, k < COST_SESSIONS);
            }
            tally
        });
        let b = s.spawn(move || {
            let mut tally = Tally::default();
            let (mut live, mut session) = (live, session);
            for pushes in 1usize.. {
                if Instant::now() >= deadline {
                    break;
                }
                session.push(&mut live, &mut rng, &mut tally);
                if pushes % PUSHES_PER_SESSION == 0 {
                    tally.attempted += 2;
                    if let Err(e) = session.close(&mut live) {
                        tally.fail("session_close", e);
                        break;
                    }
                    let number = (pushes / PUSHES_PER_SESSION) as u64;
                    session = fleet_live_session(&mut live, run.seed, number);
                    tally.computed += 1;
                }
            }
            tally
        });
        (a.join().expect("client A"), b.join().expect("client B"))
    });
    let timed = started.elapsed();
    let after = fleet_counters(&fleet);
    let mut tally = a;
    tally.merge(b);
    let mean_cost = if tally.costs.len() == COST_SESSIONS as usize * (EDITS_PER_SESSION + 1) {
        tally.costs.iter().sum::<f64>() / tally.costs.len() as f64
    } else {
        eprintln!("only {} of the cost sample completed", tally.costs.len());
        f64::NAN
    };
    fleet.stop();
    finish(run, setup, timed, tally, before, after, mean_cost)
}
