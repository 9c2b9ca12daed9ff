//! End-to-end tests of the serving subsystem: cache determinism, digest
//! collision sanity, the TCP protocol round-trip, and deadline-bounded
//! (anytime) computation.

use antlayer_aco::AcoParams;
use antlayer_graph::{generate, DiGraph};
use antlayer_service::protocol::{parse, Json};
use antlayer_service::{
    AlgoSpec, LayoutRequest, Scheduler, SchedulerConfig, Server, ServerConfig, Source,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn graph(seed: u64, n: usize, m: usize) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::random_dag_with_edges(n, m, &mut rng).into_graph()
}

fn quick_aco(seed: u64) -> AlgoSpec {
    AlgoSpec::Aco(AcoParams::default().with_colony(4, 4).with_seed(seed))
}

#[test]
fn cache_determinism_hit_is_bit_identical_and_skips_compute() {
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: 2,
        ..Default::default()
    });
    let request = LayoutRequest::new(graph(1, 30, 45), quick_aco(1));
    let first = scheduler.submit(request.clone()).unwrap().wait().unwrap();
    assert_eq!(first.source, Source::Computed);

    for _ in 0..3 {
        let again = scheduler.submit(request.clone()).unwrap().wait().unwrap();
        assert_eq!(again.source, Source::CacheHit, "identical digest must hit");
        // Bit-identical: same Arc, same layering, same metrics.
        assert!(std::sync::Arc::ptr_eq(&first.result, &again.result));
        assert_eq!(first.result.layering, again.result.layering);
    }
    let counters = scheduler.counters();
    assert_eq!(counters.computed, 1, "hits must not recompute");
    assert_eq!(counters.cache.hits, 3);
}

#[test]
fn fresh_schedulers_compute_identical_bits_for_identical_requests() {
    // Determinism across processes (approximated by fresh schedulers):
    // the cache key identifies the result bits.
    let make = || {
        Scheduler::new(SchedulerConfig {
            threads: 3,
            ..Default::default()
        })
        .submit(LayoutRequest::new(graph(7, 25, 40), quick_aco(7)))
        .unwrap()
        .wait()
        .unwrap()
    };
    let (a, b) = (make(), make());
    assert_eq!(a.result.digest, b.result.digest);
    assert_eq!(a.result.layering, b.result.layering);
    assert_eq!(a.result.metrics.height, b.result.metrics.height);
}

#[test]
fn digest_collision_sanity_over_many_small_graphs() {
    // Distinct small graphs (and distinct params on one graph) must get
    // distinct digests.
    // The small generators do repeat graphs across seeds, so compare the
    // digest count against the count of distinct canonical inputs, not
    // the request count: they must match exactly (no collisions, no
    // spurious splits).
    let mut digests = HashSet::new();
    let mut canonical_inputs = HashSet::new();
    let mut record = |req: &LayoutRequest, aco_seed: u64| {
        let mut edges: Vec<(u32, u32)> = req
            .graph
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        edges.sort_unstable();
        canonical_inputs.insert((req.graph.node_count(), edges, aco_seed));
        digests.insert(req.digest().as_u128());
    };
    for seed in 0..60u64 {
        for (n, m) in [(4, 4), (6, 8), (9, 14)] {
            record(&LayoutRequest::new(graph(seed, n, m), quick_aco(1)), 1);
        }
    }
    for seed in 0..20u64 {
        record(&LayoutRequest::new(graph(1, 6, 8), quick_aco(seed)), seed);
    }
    assert_eq!(
        digests.len(),
        canonical_inputs.len(),
        "digest count must equal distinct canonical input count"
    );
    assert!(canonical_inputs.len() > 100, "fixture too degenerate");
}

#[test]
fn protocol_round_trip_over_loopback_socket() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| -> Json {
        let mut s = stream.try_clone().unwrap();
        writeln!(s, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim_end()).unwrap()
    };

    // Liveness.
    let pong = send(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

    // Layout, then the identical request again: second must be a cache
    // hit with identical layers (the end-to-end demo of the issue).
    let layout = r#"{"op":"layout","algo":"aco","nodes":6,"edges":[[0,1],[0,2],[1,3],[2,3],[3,4],[3,5]],"ants":4,"tours":4,"seed":1}"#;
    let first = send(layout);
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(first.get("source").and_then(Json::as_str), Some("computed"));
    assert!(first.get("height").and_then(Json::as_u64).unwrap() >= 4);
    let second = send(layout);
    assert_eq!(second.get("source").and_then(Json::as_str), Some("hit"));
    assert_eq!(first.get("layers"), second.get("layers"));
    assert_eq!(first.get("digest"), second.get("digest"));

    // The hit is visible in the server's stats counters.
    let stats = send(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("computed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("served").and_then(Json::as_u64), Some(2));

    // Malformed input gets a structured error, connection stays usable.
    let err = send("garbage");
    assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
    let pong = send(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

    handle.shutdown();
}

#[test]
fn concurrent_clients_share_one_computation() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    let layout = r#"{"op":"layout","algo":"aco","nodes":20,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,12],[12,13],[13,14],[14,15],[15,16],[16,17],[17,18],[18,19]],"ants":6,"tours":10,"seed":3}"#;
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut s = stream.try_clone().unwrap();
                writeln!(s, "{layout}").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                parse(reply.trim_end()).unwrap()
            })
        })
        .collect();
    let replies: Vec<Json> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for r in &replies {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("layers"), replies[0].get("layers"));
    }

    // Exactly one computation happened; the rest were coalesced or hits.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut s = stream.try_clone().unwrap();
    writeln!(s, "{{\"op\":\"stats\"}}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let stats = parse(reply.trim_end()).unwrap();
    assert_eq!(stats.get("computed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("served").and_then(Json::as_u64), Some(4));

    handle.shutdown();
}

#[test]
fn zero_deadline_layout_is_still_valid_and_uncached() {
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: 1,
        ..Default::default()
    });
    let mut request = LayoutRequest::new(
        graph(11, 40, 60),
        AlgoSpec::Aco(AcoParams::default().with_seed(11)),
    );
    request.deadline = Some(Duration::ZERO);
    let response = scheduler.submit(request.clone()).unwrap().wait().unwrap();
    assert!(response.result.stopped_early);
    // A valid layering over the oriented DAG: every node is placed.
    let placed: usize = response.result.layering.layers().iter().map(Vec::len).sum();
    assert_eq!(placed, 40);
    assert!(response.result.metrics.height >= 1);

    // And over the wire the flag is visible too.
    let again = scheduler.submit(request).unwrap().wait().unwrap();
    assert_eq!(
        again.source,
        Source::Computed,
        "truncated results must not serve future requests from cache"
    );
}

#[test]
fn deadline_truncation_degrades_gracefully_not_catastrophically() {
    // A tiny (but nonzero) budget may complete 0..n_tours tours; whatever
    // happens, the result validates and reports its provenance honestly.
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: 1,
        ..Default::default()
    });
    let mut request = LayoutRequest::new(
        graph(13, 60, 90),
        AlgoSpec::Aco(
            AcoParams::default()
                .with_colony(10, 1_000_000)
                .with_seed(13),
        ),
    );
    request.deadline = Some(Duration::from_millis(30));
    let response = scheduler.submit(request).unwrap().wait().unwrap();
    let placed: usize = response.result.layering.layers().iter().map(Vec::len).sum();
    assert_eq!(placed, 60);
    // A million tours of a 10-ant colony on n=60 take minutes even in a
    // release build, so the budget must have bitten.
    assert!(response.result.stopped_early);
    assert!(response.result.compute_micros < 5_000_000);
}

#[test]
fn delta_inverse_restores_the_canonical_digest() {
    // The edit protocol's identity invariant: applying a delta and then
    // its inverse restores not just the graph but its canonical digest,
    // so an undo in the editor lands back on the same cache entry.
    use antlayer_graph::GraphDelta;
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..25 {
        let g = {
            let n = rng.gen_range(5..40usize);
            let m = rng.gen_range(0..2 * n);
            let mut inner = StdRng::seed_from_u64(rng.gen_range(0..u64::MAX));
            generate::random_dag_with_edges(n, m, &mut inner).into_graph()
        };
        // Random applicable delta: remove up to 2 existing edges, add up
        // to 2 fresh pairs.
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        let mut removed = Vec::new();
        for _ in 0..rng.gen_range(0..=2usize).min(edges.len()) {
            let e = edges[rng.gen_range(0..edges.len())];
            if !removed.contains(&e) {
                removed.push(e);
            }
        }
        let mut added = Vec::new();
        for _ in 0..rng.gen_range(0..=2usize) {
            let u = rng.gen_range(0..g.node_count() as u32);
            let v = rng.gen_range(0..g.node_count() as u32);
            if u != v
                && !g.has_edge(u.into(), v.into())
                && !added.contains(&(u, v))
                && !removed.contains(&(u, v))
            {
                added.push((u, v));
            }
        }
        let delta = GraphDelta::new(added, removed);
        let request =
            |g: &antlayer_graph::DiGraph| LayoutRequest::new(g.clone(), quick_aco(1)).digest();
        let original = request(&g);
        let edited = delta.apply(&g).unwrap();
        let restored = delta.inverse().apply(&edited).unwrap();
        assert_eq!(request(&restored), original, "digest must round-trip");
        if !delta.is_empty() {
            assert_ne!(request(&edited), original, "edit must change identity");
        }
    }
}

#[test]
fn delta_chain_of_five_edits_never_caches_truncated_layerings() {
    // The interactive pattern: each edit is previewed under a hard
    // deadline (anytime, truncated) and then committed unbounded. The
    // previews must never leak into the cache — a commit right after a
    // preview of the same edit still computes (warm), and the final
    // full-layout lookup hits the committed, untruncated entry.
    use antlayer_graph::GraphDelta;
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: 2,
        ..Default::default()
    });
    let mut g = graph(21, 40, 60);
    let base = scheduler
        .submit(LayoutRequest::new(g.clone(), quick_aco(21)))
        .unwrap()
        .wait()
        .unwrap();
    let mut digest = base.result.digest;
    for step in 0..5 {
        let (u, v) = g.edges().nth(step).unwrap();
        let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);

        // Preview: zero budget, truncated, served but never cached.
        let mut preview = antlayer_service::DeltaRequest::new(digest, delta.clone(), quick_aco(21));
        preview.deadline = Some(Duration::ZERO);
        let p = scheduler.submit_delta(preview).unwrap().wait().unwrap();
        assert!(p.result.stopped_early, "edit {step}: preview must truncate");
        let placed: usize = p.result.layering.layers().iter().map(Vec::len).sum();
        assert_eq!(placed, 40, "edit {step}: truncated preview still valid");

        // Commit: unbounded. If the preview had been cached this would
        // be a CacheHit serving a truncated result; it must compute.
        let commit = antlayer_service::DeltaRequest::new(digest, delta.clone(), quick_aco(21));
        let c = scheduler.submit_delta(commit).unwrap().wait().unwrap();
        assert_eq!(c.source, Source::Warm, "edit {step}: commit computes warm");
        assert!(!c.result.stopped_early, "edit {step}: commit is complete");
        assert!(c.result.seeded);

        g = delta.apply(&g).unwrap();
        digest = c.result.digest;
    }
    // The tip of the chain is cached, complete, and identical to a full
    // request for the final graph.
    let tip = scheduler
        .submit(LayoutRequest::new(g, quick_aco(21)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(tip.source, Source::CacheHit);
    assert_eq!(tip.result.digest, digest);
    assert!(!tip.result.stopped_early);
}

#[test]
fn layout_delta_round_trips_over_loopback_socket() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: String| -> Json {
        let mut s = stream.try_clone().unwrap();
        writeln!(s, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim_end()).unwrap()
    };

    let layout = r#"{"op":"layout","algo":"aco","nodes":6,"edges":[[0,1],[0,2],[1,3],[2,3],[3,4],[3,5]],"ants":4,"tours":4,"seed":1}"#;
    let first = send(layout.to_string());
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
    let digest = first
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Edit: drop (3,5), connect 4 -> 5 instead.
    let delta = format!(
        r#"{{"op":"layout_delta","base":"{digest}","add":[[4,5]],"remove":[[3,5]],"algo":"aco","ants":4,"tours":4,"seed":1}}"#
    );
    let warm = send(delta.clone());
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)), "{}", warm.encode());
    assert_eq!(warm.get("source").and_then(Json::as_str), Some("warm"));
    assert_eq!(warm.get("seeded"), Some(&Json::Bool(true)));
    assert_ne!(
        warm.get("digest").and_then(Json::as_str),
        Some(digest.as_str())
    );

    // The same edit again: now a plain cache hit under the new digest.
    let again = send(delta);
    assert_eq!(again.get("source").and_then(Json::as_str), Some("hit"));
    assert_eq!(again.get("layers"), warm.get("layers"));

    // An unknown base yields the structured fallback error.
    let missing = send(format!(
        r#"{{"op":"layout_delta","base":"{}","add":[[0,5]]}}"#,
        "f".repeat(32)
    ));
    assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));
    assert!(missing
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("base not found"));

    handle.shutdown();
}
