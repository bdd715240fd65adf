//! `cluster-fanout`: three in-memory `ssjoin serve` nodes on loopback TCP,
//! driven closed-loop by one `ssj_cluster::Router` over `TcpTransport`.
//!
//! Traffic: 90% query (scatter to every node), 10% insert (to the ring
//! owner). The transport connects once per call, so every query opens
//! three connections.

use crate::util::{
    jaccard, median, near_copy, quantile, random_set, repeat_setup, set_line, Node, Rng, WorkDir,
};
use crate::{E2e, Opts, Outcome};
use ssj_cluster::{
    ClusterSeq, HashRing, Router, RouterScratch, TcpTransport, Transport, TransportError,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const SET_SIZE: usize = 10;
const DOMAIN: u32 = 50_000;
const GAMMA: f64 = 0.8;
const SEED: u64 = 42;
/// Sampled query answers checked against a brute-force scan.
const SAMPLES: f64 = 150.0;

/// `TcpTransport` with every call timed: the cluster layer's trace.
struct Timed {
    inner: TcpTransport,
    calls_us: Vec<f64>,
}

impl Transport for Timed {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError> {
        let t = Instant::now();
        let r = self.inner.call(node, line, resp);
        self.calls_us.push(t.elapsed().as_secs_f64() * 1e6);
        r
    }
}

fn node_args() -> Vec<String> {
    [
        "--threshold",
        "0.8",
        "--seed",
        "42",
        "--shards",
        "4",
        "--workers",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

struct Cluster {
    nodes: Vec<Node>,
    addrs: Vec<String>,
}

fn start(work: &WorkDir) -> Result<Cluster, String> {
    let mut nodes = Vec::new();
    for n in 0..NODES {
        nodes.push(Node::start(
            &node_args(),
            &work.path(&format!("node{n}.log")),
        )?);
    }
    let addrs = nodes.iter().map(|n| n.addr.clone()).collect();
    Ok(Cluster { nodes, addrs })
}

fn router<T: Transport>(transport: T) -> Router<T> {
    let ring = HashRing::new(NODES as u32, HashRing::DEFAULT_VNODES, SEED);
    Router::new(transport, ring, 1)
}

struct Sample {
    set: Vec<u32>,
    ids: Vec<u64>,
    /// Sets inserted before the query (the model's length then).
    visible: usize,
}

/// The closed loop's record.
#[derive(Default)]
struct Phase {
    query_us: Vec<f64>,
    write_us: Vec<f64>,
    ops_per_s: f64,
    attempted: u64,
    failed: u64,
    merge_us: Vec<f64>,
    query_calls: usize,
    parse_ns: Vec<f64>,
    encode_ns: Vec<f64>,
}

/// Runs the 90/10 closed loop for `secs`, appending inserts to `model`.
/// `calls` exposes the timing transport's call log on traced runs, which
/// also time the wire codec on each query's request line and answer.
fn drive<T: Transport>(
    router: &mut Router<T>,
    calls: impl Fn(&Router<T>) -> Option<&[f64]>,
    rng: &mut Rng,
    model: &mut Vec<(u64, Vec<u32>)>,
    samples: &mut Vec<Sample>,
    sample_p: f64,
    secs: f64,
) -> Phase {
    let mut phase = Phase::default();
    let mut scratch = RouterScratch::default();
    let mut ids = Vec::new();
    let mut seen = ClusterSeq::new(NODES);
    let preload = model.len();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    while Instant::now() < until {
        let set = if rng.below(2) == 0 {
            let base = &model[rng.below(preload as u64) as usize].1;
            near_copy(rng, base, DOMAIN)
        } else {
            random_set(rng, SET_SIZE, DOMAIN)
        };
        let query = rng.below(10) != 0;
        phase.attempted += 1;
        let before = calls(router).map_or(0, <[f64]>::len);
        let t = Instant::now();
        if query {
            let r = router.route_query(&set, &mut scratch, &mut ids, &mut seen);
            let us = t.elapsed().as_secs_f64() * 1e6;
            match r {
                Ok(ack) => {
                    phase.query_us.push(us);
                    if let Some(c) = calls(router) {
                        let spent: f64 = c[before..].iter().sum();
                        phase.merge_us.push(us - spent);
                        phase.query_calls += c.len() - before;
                        let line = set_line("query", &set);
                        let t = Instant::now();
                        let parsed = ssj_serve::wire::parse_request(&line);
                        phase.parse_ns.push(t.elapsed().as_nanos() as f64);
                        let _ = std::hint::black_box(parsed);
                        let answer = ssj_serve::Response::Matches {
                            ids: ids.clone(),
                            seen_seq: seen.total(),
                            probed: ack.probed,
                        };
                        let t = Instant::now();
                        let encoded = ssj_serve::wire::encode_response(&answer);
                        phase.encode_ns.push(t.elapsed().as_nanos() as f64);
                        std::hint::black_box(encoded);
                    }
                    if rng.unit() < sample_p {
                        samples.push(Sample {
                            set,
                            ids: ids.clone(),
                            visible: model.len(),
                        });
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("cluster-fanout: query failed: {e}");
                }
            }
        } else {
            match router.route_insert(&set, &mut scratch) {
                Ok(ack) => {
                    phase.write_us.push(t.elapsed().as_secs_f64() * 1e6);
                    model.push((ack.id, set));
                }
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("cluster-fanout: insert failed: {e}");
                }
            }
        }
    }
    phase.ops_per_s = phase.attempted as f64 / t0.elapsed().as_secs_f64();
    phase
}

/// Compares each sampled answer, by set content, with a brute-force
/// Jaccard scan of the sets inserted before it.
fn check(model: &[(u64, Vec<u32>)], samples: &[Sample]) -> bool {
    let by_id: HashMap<u64, &Vec<u32>> = model.iter().map(|(id, s)| (*id, s)).collect();
    let mut ok = true;
    for s in samples {
        let mut got: Vec<&Vec<u32>> = Vec::new();
        for id in &s.ids {
            match by_id.get(id) {
                Some(set) => got.push(set),
                None => {
                    eprintln!("oracle: cluster answered unknown id {id}");
                    ok = false;
                }
            }
        }
        let mut want: Vec<&Vec<u32>> = model[..s.visible]
            .iter()
            .filter(|(_, set)| jaccard(set, &s.set) >= GAMMA)
            .map(|(_, set)| set)
            .collect();
        got.sort();
        want.sort();
        if got != want {
            eprintln!(
                "oracle: cluster query {:?} answered {got:?}, brute force {want:?}",
                s.set
            );
            ok = false;
        }
    }
    ok
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let preload_n = if opts.tiny { 2_000 } else { 20_000 };
    let work = WorkDir::create(&opts.work_root, "cluster-fanout").map_err(|e| e.to_string())?;

    // Set-up: start the nodes, preload through the router.
    let (mut setup_ops, mut failed_setup) = (0u64, 0u64);
    let (setup_s, (cluster, mut model)) = repeat_setup(|| {
        let cluster = start(&work)?;
        let mut rng = Rng::new(crate::util::mix(opts.seed ^ 0xc105));
        let mut r = router(TcpTransport::new(cluster.addrs.clone()));
        let mut scratch = RouterScratch::default();
        let mut model = Vec::with_capacity(preload_n);
        for _ in 0..preload_n {
            let set = random_set(&mut rng, SET_SIZE, DOMAIN);
            setup_ops += 1;
            match r.route_insert(&set, &mut scratch) {
                Ok(ack) => model.push((ack.id, set)),
                Err(e) => {
                    failed_setup += 1;
                    eprintln!("cluster-fanout: preload insert failed: {e}");
                }
            }
        }
        Ok((cluster, model))
    })?;

    let mut rng = Rng::new(crate::util::mix(opts.seed ^ 0xfa2));
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // ~2.5k ops/s, 90% queries.
    let sample_p = SAMPLES / (0.9 * 2_500.0 * window);
    let mut samples = Vec::new();
    let mut plain = router(TcpTransport::new(cluster.addrs.clone()));
    let base = drive(
        &mut plain,
        |_| None,
        &mut rng,
        &mut model,
        &mut samples,
        sample_p,
        window,
    );
    let traced = opts.trace.then(|| {
        let mut timed = router(Timed {
            inner: TcpTransport::new(cluster.addrs.clone()),
            calls_us: Vec::new(),
        });
        let phase = drive(
            &mut timed,
            |r| Some(&r.transport().calls_us[..]),
            &mut rng,
            &mut model,
            &mut samples,
            sample_p,
            window,
        );
        (phase, std::mem::take(&mut timed.transport_mut().calls_us))
    });

    let correct = check(&model, &samples);
    let peak_rss_mb: f64 = cluster.nodes.iter().map(Node::peak_rss_mb).sum();
    drop(cluster);

    let e2e_of = |p: &Phase| E2e {
        setup_s,
        peak_rss_mb,
        latency_p50_us: median(&p.query_us),
        throughput_per_s: p.ops_per_s,
    };
    let attempted = setup_ops + base.attempted + traced.as_ref().map_or(0, |t| t.0.attempted);
    let failed = base.failed + traced.as_ref().map_or(0, |t| t.0.failed) + failed_setup;
    println!(
        "e2e cluster-fanout: sat_rps={:.1} query_p50_us={:.1} query_p99_us={:.1} (n={}) \
         write_p50_us={:.1} write_p99_us={:.1} (n={}) fail_ratio={:.6} checked_samples={}",
        base.ops_per_s,
        median(&base.query_us),
        quantile(&base.query_us, 0.99),
        base.query_us.len(),
        median(&base.write_us),
        quantile(&base.write_us, 0.99),
        base.write_us.len(),
        failed as f64 / attempted.max(1) as f64,
        samples.len()
    );
    let mut outcome = Outcome {
        correct,
        attempted,
        failed,
        e2e: e2e_of(&base),
        ..Outcome::default()
    };
    if let Some((phase, calls)) = &traced {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        outcome.traced = Some(e2e_of(phase));
        let l = &mut outcome.layers;
        l.insert("router.call_p50_us", median(calls));
        l.insert("router.call_p99_us", quantile(calls, 0.99));
        l.insert(
            "router.calls_per_query",
            phase.query_calls as f64 / phase.query_us.len().max(1) as f64,
        );
        l.insert("router.merge_us", median(&phase.merge_us));
        l.insert("wire.parse_ns", mean(&phase.parse_ns));
        l.insert("wire.encode_ns", mean(&phase.encode_ns));
        println!(
            "layers cluster-fanout: {}",
            l.iter()
                .map(|(k, v)| format!("{k}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    Ok(outcome)
}
