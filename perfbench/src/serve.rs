//! `serve-durable`: one durable `ssjoin serve` node over TCP NDJSON, driven
//! open-loop at a fixed rate and then closed-loop to saturation.
//!
//! Traffic: 70% query, 15% insert, 10% query_insert, 5% remove, from two
//! connections on two threads. Half the probes and inserts are near-copies
//! of preloaded sets, so answers are non-empty and checkable.

use crate::util::{
    dir_bytes, jaccard, median, near_copy, quantile, random_set, repeat_setup, set_line, Conn,
    Node, Rng, WorkDir,
};
use crate::{E2e, Opts, Outcome};
use ssj_cluster::scan;
use ssj_core::index::Placement;
use ssj_serve::{ServeScratch, ServerConfig, ShardedIndex, SyncMode, WriteResult};
use ssj_store::{Store, StoreConfig, WalOp};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, ErrorKind};
use std::path::Path;
use std::time::{Duration, Instant};

const SET_SIZE: usize = 10;
const DOMAIN: u32 = 50_000;
const SHARDS: usize = 4;
const GAMMA: f64 = 0.8;
const SEED: u64 = 42;
/// Open-loop arrival rate over both connections. Below saturation, and
/// high enough that the window crosses the default 8192-write snapshot
/// cadence, so the p99 carries the snapshot stall.
const RATE: f64 = 2_000.0;
/// Share of the window spent open-loop; the rest measures saturation.
const OPEN_SHARE: f64 = 0.8;
/// Sampled query answers checked against a brute-force scan.
const SAMPLES: f64 = 150.0;
const CONNS: usize = 2;

fn node_args(dir: &Path) -> Vec<String> {
    [
        "--threshold",
        "0.8",
        "--seed",
        "42",
        "--shards",
        "4",
        "--workers",
        "1",
        "--sync",
        "every",
        "--data-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([dir.display().to_string()])
    .collect()
}

fn server_config(dir: Option<&Path>, sync: SyncMode) -> ServerConfig {
    ServerConfig {
        gamma: GAMMA,
        shards: SHARDS,
        workers: 1,
        seed: SEED,
        data_dir: dir.map(Path::to_path_buf),
        sync,
        snapshot_every: 0,
        ..ServerConfig::default()
    }
}

/// Seconds from node spawn until a query over TCP answers.
fn start_node(dir: &Path, log: &Path) -> Result<(Node, f64), String> {
    let t = Instant::now();
    let node = Node::start(&node_args(dir), log)?;
    let mut conn = Conn::open(&node.addr).map_err(|e| e.to_string())?;
    let reply = conn
        .call(&set_line("query", &[1, 2, 3]))
        .map_err(|e| e.to_string())?;
    if !scan::is_ok(reply) {
        return Err(format!("first query failed: {reply}"));
    }
    Ok((node, t.elapsed().as_secs_f64()))
}

#[derive(Debug, Clone)]
enum Write {
    Insert(u64, Vec<u32>),
    Remove(u64),
}

#[derive(Debug)]
struct Sample {
    set: Vec<u32>,
    ids: Vec<u64>,
    seen_seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Insert,
    QueryInsert,
    Remove,
}

struct Op {
    kind: Kind,
    set: Vec<u32>,
    id: u64,
    sample: bool,
    line: String,
}

/// One connection's traffic source and everything it observed.
struct Client<'a> {
    rng: Rng,
    preload: &'a [Vec<u32>],
    removable: Vec<u64>,
    sample_p: f64,
    trace: bool,
    query_us: Vec<f64>,
    write_us: Vec<f64>,
    writes: Vec<(u64, Write)>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    closed_ops: u64,
    sat_rps: f64,
    max_late_us: f64,
    parse_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    ids: Vec<u64>,
}

impl<'a> Client<'a> {
    fn new(seed: u64, preload: &'a [Vec<u32>], removable: Vec<u64>, sample_p: f64) -> Self {
        Self {
            rng: Rng::new(seed),
            preload,
            removable,
            sample_p,
            trace: false,
            query_us: Vec::new(),
            write_us: Vec::new(),
            writes: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            closed_ops: 0,
            sat_rps: 0.0,
            max_late_us: 0.0,
            parse_ns: Vec::new(),
            encode_ns: Vec::new(),
            ids: Vec::new(),
        }
    }

    fn probe_set(&mut self) -> Vec<u32> {
        if self.rng.below(2) == 0 {
            let base = &self.preload[self.rng.below(self.preload.len() as u64) as usize];
            near_copy(&mut self.rng, base, DOMAIN)
        } else {
            random_set(&mut self.rng, SET_SIZE, DOMAIN)
        }
    }

    fn next_op(&mut self, open: bool) -> Op {
        let u = self.rng.unit();
        let mut kind = match u {
            u if u < 0.70 => Kind::Query,
            u if u < 0.85 => Kind::Insert,
            u if u < 0.95 => Kind::QueryInsert,
            _ => Kind::Remove,
        };
        if kind == Kind::Remove && self.removable.is_empty() {
            kind = Kind::Query;
        }
        let (set, id, line) = if kind == Kind::Remove {
            let at = self.rng.below(self.removable.len() as u64) as usize;
            let id = self.removable.swap_remove(at);
            (Vec::new(), id, format!("{{\"op\":\"remove\",\"id\":{id}}}"))
        } else {
            let set = self.probe_set();
            let op = match kind {
                Kind::Query => "query",
                Kind::Insert => "insert",
                _ => "query_insert",
            };
            let line = set_line(op, &set);
            (set, 0, line)
        };
        let sample = open && kind == Kind::Query && self.rng.unit() < self.sample_p;
        if self.trace {
            let t = Instant::now();
            let _ = std::hint::black_box(ssj_serve::wire::parse_request(&line));
            self.parse_ns.push(t.elapsed().as_nanos() as f64);
        }
        Op {
            kind,
            set,
            id,
            sample,
            line,
        }
    }

    /// Books one reply; `lat_us` is `None` in the closed-loop phase.
    fn on_reply(&mut self, op: Op, reply: &str, lat_us: Option<f64>) {
        if !scan::is_ok(reply) {
            self.failed += 1;
            return;
        }
        let seq = scan::field_u64(reply, "seq");
        let id = scan::field_u64(reply, "id");
        self.ids.clear();
        let ids = &mut self.ids;
        let has_ids = scan::for_each_array_u64(reply, "ids", |x| ids.push(x));
        let probed = scan::field_u64(reply, "probed").unwrap_or(0);
        let durable = scan::field_u64(reply, "durable_seq");
        let resp = match (op.kind, seq, id) {
            (Kind::Query, _, _) => {
                let Some(seen_seq) = scan::field_u64(reply, "seen_seq").filter(|_| has_ids) else {
                    self.failed += 1;
                    return;
                };
                if op.sample {
                    self.samples.push(Sample {
                        set: op.set,
                        ids: self.ids.clone(),
                        seen_seq,
                    });
                }
                if let Some(l) = lat_us {
                    self.query_us.push(l);
                }
                ssj_serve::Response::Matches {
                    ids: self.ids.clone(),
                    seen_seq,
                    probed,
                }
            }
            (Kind::Insert, Some(seq), Some(id)) => {
                self.writes.push((seq, Write::Insert(id, op.set)));
                ssj_serve::Response::Inserted { id, seq, durable }
            }
            (Kind::QueryInsert, Some(seq), Some(id)) => {
                self.writes.push((seq, Write::Insert(id, op.set)));
                ssj_serve::Response::QueryInserted {
                    ids: self.ids.clone(),
                    id,
                    seq,
                    probed,
                    durable,
                }
            }
            (Kind::Remove, Some(seq), _) => {
                self.writes.push((seq, Write::Remove(op.id)));
                ssj_serve::Response::Removed {
                    found: reply.contains("\"found\":true"),
                    seq,
                    durable,
                }
            }
            _ => {
                self.failed += 1;
                return;
            }
        };
        if op.kind != Kind::Query {
            if let Some(l) = lat_us {
                self.write_us.push(l);
            }
        }
        if self.trace {
            let t = Instant::now();
            let encoded = ssj_serve::wire::encode_response(&resp);
            self.encode_ns.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(encoded);
        }
    }

    /// Fixed-rate arrivals: request `i` is due at `start + i·interval`,
    /// sent when due whatever is outstanding, and timed from its due time.
    /// The socket is non-blocking so one thread both sends on schedule and
    /// collects replies; idle waits are short sleeps.
    fn open_loop(&mut self, conn: &mut Conn, start: Instant, interval: Duration, count: u64) {
        let mut pending: VecDeque<(Instant, Op)> = VecDeque::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut sent = 0u64;
        let mut broken = conn.stream().set_nonblocking(true).is_err();
        while !broken && (sent < count || !pending.is_empty()) {
            let mut idle = true;
            let now = Instant::now();
            while sent < count && start + interval * sent as u32 <= now {
                let due = start + interval * sent as u32;
                let op = self.next_op(true);
                self.attempted += 1;
                self.max_late_us = self.max_late_us.max((now - due).as_secs_f64() * 1e6);
                if conn.send(&op.line).is_err() {
                    self.failed += 1;
                    broken = true;
                    break;
                }
                pending.push_back((due, op));
                sent += 1;
                idle = false;
            }
            loop {
                match conn.reader_mut().read_until(b'\n', &mut buf) {
                    Ok(0) => broken = true,
                    Ok(_) if buf.ends_with(b"\n") => {
                        let done = Instant::now();
                        let Some((due, op)) = pending.pop_front() else {
                            broken = true;
                            break;
                        };
                        let reply = String::from_utf8_lossy(&buf).trim_end().to_string();
                        buf.clear();
                        self.on_reply(op, &reply, Some((done - due).as_secs_f64() * 1e6));
                        idle = false;
                        continue;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => broken = true,
                }
                break;
            }
            if idle {
                let next = start + interval * sent as u32;
                let wait = next.saturating_duration_since(Instant::now());
                std::thread::sleep(wait.min(Duration::from_micros(20)));
            }
        }
        // Whatever never got a reply failed.
        self.failed += pending.len() as u64;
        let _ = conn.stream().set_nonblocking(false);
    }

    fn closed_loop(&mut self, conn: &mut Conn, until: Instant) {
        while Instant::now() < until {
            let op = self.next_op(false);
            self.attempted += 1;
            match conn.call(&op.line) {
                Ok(reply) => {
                    let reply = reply.to_string();
                    self.closed_ops += 1;
                    self.on_reply(op, &reply, None);
                }
                Err(_) => {
                    self.failed += 1;
                    return;
                }
            }
        }
    }
}

/// The measured phases against a running node.
#[derive(Default)]
struct Phase {
    query_us: Vec<f64>,
    write_us: Vec<f64>,
    sat_rps: f64,
    max_late_us: f64,
    parse_ns: Vec<f64>,
    encode_ns: Vec<f64>,
}

/// What every phase observed: acked writes, sampled answers, op counts.
#[derive(Default)]
struct Log {
    writes: Vec<(u64, Write)>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// Open loop for `OPEN_SHARE` of `seconds`, then closed loop, on two
/// connections. Each connection removes only ids from its own share of
/// `removable`, so no id is removed twice.
fn drive(
    addr: &str,
    seed: u64,
    preload: &[Vec<u32>],
    removable: &mut [Vec<u64>],
    seconds: f64,
    trace: bool,
    log: &mut Log,
) -> Result<Phase, String> {
    let open_s = seconds * OPEN_SHARE;
    let per_conn = ((RATE * open_s) / CONNS as f64).ceil() as u64;
    let interval = Duration::from_secs_f64(CONNS as f64 / RATE);
    let sample_p = SAMPLES / (0.7 * RATE * open_s);
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(Conn::open(addr).map_err(|e| e.to_string())?);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let open_end = start + Duration::from_secs_f64(open_s);
    let clients: Vec<Client<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(removable.iter_mut())
            .enumerate()
            .map(|(c, (conn, rem))| {
                let rem = std::mem::take(rem);
                scope.spawn(move || {
                    let mut client = Client::new(
                        crate::util::mix(seed ^ (0x5e77 + c as u64)),
                        preload,
                        rem,
                        sample_p,
                    );
                    client.trace = trace;
                    // Staggered so arrivals are evenly spaced at RATE overall.
                    let my_start = start + interval / CONNS as u32 * c as u32;
                    client.open_loop(conn, my_start, interval, per_conn);
                    // Saturation: both connections closed-loop, starting
                    // together once the open-loop phase has drained.
                    let sat_start = Instant::now().max(open_end);
                    while Instant::now() < sat_start {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    let sat_s = seconds - open_s;
                    let t = Instant::now();
                    client.closed_loop(conn, t + Duration::from_secs_f64(sat_s));
                    client.sat_rps = client.closed_ops as f64 / t.elapsed().as_secs_f64();
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(removable.iter_mut())
            .map(|(h, rem)| {
                let client = h.join().expect("client thread");
                rem.clone_from(&client.removable);
                client
            })
            .collect()
    });
    let mut phase = Phase::default();
    for c in clients {
        phase.query_us.extend(c.query_us);
        phase.write_us.extend(c.write_us);
        phase.sat_rps += c.sat_rps;
        phase.max_late_us = phase.max_late_us.max(c.max_late_us);
        phase.parse_ns.extend(c.parse_ns);
        phase.encode_ns.extend(c.encode_ns);
        log.writes.extend(c.writes);
        log.samples.extend(c.samples);
        log.attempted += c.attempted;
        log.failed += c.failed;
    }
    Ok(phase)
}

/// Replays the write log in seq order and checks every sampled answer
/// against a brute-force Jaccard scan of the sets live at its snapshot.
/// Returns the final live model.
fn check(
    mut live: HashMap<u64, Vec<u32>>,
    writes: &mut [(u64, Write)],
    samples: &mut [Sample],
) -> (bool, HashMap<u64, Vec<u32>>) {
    writes.sort_by_key(|w| w.0);
    samples.sort_by_key(|s| s.seen_seq);
    let mut ok = true;
    if writes.windows(2).any(|w| w[0].0 == w[1].0) {
        eprintln!("oracle: two writes acked with one seq");
        ok = false;
    }
    let mut next = 0;
    let apply = |live: &mut HashMap<u64, Vec<u32>>, w: &Write| match w {
        Write::Insert(id, set) => {
            live.insert(*id, set.clone());
        }
        Write::Remove(id) => {
            live.remove(id);
        }
    };
    for s in samples.iter() {
        while next < writes.len() && writes[next].0 < s.seen_seq {
            apply(&mut live, &writes[next].1);
            next += 1;
        }
        let mut want: Vec<u64> = live
            .iter()
            .filter(|(_, set)| jaccard(set, &s.set) >= GAMMA)
            .map(|(id, _)| *id)
            .collect();
        want.sort_unstable();
        if want != s.ids {
            eprintln!(
                "oracle: query {:?} at seq {} answered {:?}, brute force says {:?}",
                s.set, s.seen_seq, s.ids, want
            );
            ok = false;
        }
    }
    for w in &writes[next..] {
        apply(&mut live, &w.1);
    }
    (ok, live)
}

struct Stats {
    live: u64,
    values: BTreeMap<&'static str, f64>,
}

fn node_stats(addr: &str) -> Result<Stats, String> {
    let reply =
        ssj_serve::net::client_call(addr, "{\"op\":\"stats\"}").map_err(|e| e.to_string())?;
    let v = ssj_io::json::parse(&reply)?;
    let obj = v.as_object()?;
    let num = |o: &BTreeMap<String, ssj_io::json::Value>, k: &str| -> f64 {
        o.get(k).and_then(|x| x.as_f64().ok()).unwrap_or(0.0)
    };
    let mut values = BTreeMap::new();
    let hist = |k: &str| obj.get(k).and_then(|h| h.as_object().ok());
    if let Some(h) = hist("queue_wait") {
        values.insert("queue.wait_p50_us", num(h, "p50_us"));
        values.insert("queue.wait_p99_us", num(h, "p99_us"));
    }
    if let Some(h) = hist("service_time") {
        values.insert("service.p50_us", num(h, "p50_us"));
        values.insert("service.p99_us", num(h, "p99_us"));
    }
    values.insert("shed.overloaded", num(obj, "overloaded"));
    values.insert("shed.timeouts", num(obj, "timeouts"));
    let live = obj
        .get("live_sets")
        .and_then(|l| l.as_array().ok())
        .map(|a| a.iter().filter_map(|x| x.as_u64().ok()).sum())
        .unwrap_or(0);
    Ok(Stats { live, values })
}

/// Preloads `sets` into a fresh data dir through the serving layer's own
/// index and store (no fsync per write, one snapshot at the end). Returns
/// the id of each set.
fn bulk_load(dir: &Path, sets: &[Vec<u32>]) -> Result<Vec<u64>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let index = ShardedIndex::open(&server_config(Some(dir), SyncMode::Never))
        .map_err(|e| e.to_string())?;
    let mut ids = Vec::with_capacity(sets.len());
    for set in sets {
        match index.insert_d(set.clone()) {
            WriteResult::Done((id, _), _) => ids.push(id),
            WriteResult::StoreFailed(e) => return Err(e),
        }
    }
    index.snapshot_now().map_err(|e| e.to_string())?;
    Ok(ids)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let preload_n = if opts.tiny { 3_000 } else { 100_000 };
    let work = WorkDir::create(&opts.work_root, "serve-durable").map_err(|e| e.to_string())?;
    let dir = work.path("data");
    let node_log = work.path("node.log");

    // Set-up: generate, bulk-load, start the node, first answer.
    let (setup_s, (node, preload, ids)) = repeat_setup(|| {
        let mut rng = Rng::new(crate::util::mix(opts.seed ^ 0x5e7));
        let preload: Vec<Vec<u32>> = (0..preload_n)
            .map(|_| random_set(&mut rng, SET_SIZE, DOMAIN))
            .collect();
        let ids = bulk_load(&dir, &preload)?;
        let (node, _) = start_node(&dir, &node_log)?;
        Ok((node, preload, ids))
    })?;

    let model: HashMap<u64, Vec<u32>> = ids.iter().copied().zip(preload.iter().cloned()).collect();
    let mut removable: Vec<Vec<u64>> = (0..CONNS)
        .map(|c| ids.iter().skip(c).step_by(CONNS).copied().collect())
        .collect();
    let mut log = Log::default();
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (seed, addr) = (opts.seed, &node.addr);
    let base = drive(
        addr,
        seed,
        &preload,
        &mut removable,
        window,
        false,
        &mut log,
    )?;
    let traced = if opts.trace {
        let seed = seed ^ 0x7ace;
        Some(drive(
            addr,
            seed,
            &preload,
            &mut removable,
            window,
            true,
            &mut log,
        )?)
    } else {
        None
    };

    let (mut correct, live) = check(model, &mut log.writes, &mut log.samples);
    let stats = node_stats(&node.addr)?;
    if stats.live != live.len() as u64 {
        eprintln!(
            "oracle: node holds {} live sets, model {}",
            stats.live,
            live.len()
        );
        correct = false;
    }
    let peak_rss_mb = node.peak_rss_mb();
    let user_bytes: u64 = live.values().map(|s| 4 * s.len() as u64).sum();
    let disk_amp = dir_bytes(&dir) as f64 / user_bytes.max(1) as f64;
    drop(node); // a crash: the data dir is left as the measured phase left it

    let mut recovers = Vec::new();
    for _ in 0..3 {
        let (node, secs) = start_node(&dir, &node_log)?;
        recovers.push(secs);
        drop(node);
    }
    let recover_s = median(&recovers);

    let e2e_of = |p: &Phase| E2e {
        setup_s,
        peak_rss_mb,
        latency_p50_us: median(&p.query_us),
        throughput_per_s: p.sat_rps,
    };
    let e2e = e2e_of(&base);
    println!(
        "e2e serve-durable: sat_rps={:.1} query_p50_us={:.1} query_p90_us={:.1} \
         query_p99_us={:.1} (n={}) write_p50_us={:.1} write_p99_us={:.1} (n={}) \
         recover_s={:.4} disk_amp={:.3} fail_ratio={:.6} open_rate={RATE} \
         gen_late_max_us={:.0} checked_samples={}",
        base.sat_rps,
        e2e.latency_p50_us,
        quantile(&base.query_us, 0.9),
        quantile(&base.query_us, 0.99),
        base.query_us.len(),
        median(&base.write_us),
        quantile(&base.write_us, 0.99),
        base.write_us.len(),
        recover_s,
        disk_amp,
        log.failed as f64 / log.attempted.max(1) as f64,
        base.max_late_us,
        log.samples.len(),
    );

    let mut outcome = Outcome {
        correct,
        attempted: log.attempted,
        failed: log.failed,
        e2e,
        ..Outcome::default()
    };
    if let Some(tp) = &traced {
        outcome.traced = Some(e2e_of(tp));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        outcome.layers.insert("wire.parse_ns", mean(&tp.parse_ns));
        outcome.layers.insert("wire.encode_ns", mean(&tp.encode_ns));
        outcome.layers.extend(stats.values);
        trace_layers(opts, &preload, &work, &mut outcome.layers)?;
        println!(
            "layers serve-durable: {}",
            outcome
                .layers
                .iter()
                .map(|(k, v)| format!("{k}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    Ok(outcome)
}

/// In-process layer timings: `ShardedIndex` queries over the preloaded
/// sets, then `Store::{snapshot, append, ensure_durable, open}` on a
/// scratch data dir.
fn trace_layers(
    opts: &Opts,
    preload: &[Vec<u32>],
    work: &WorkDir,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let index =
        ShardedIndex::new(&server_config(None, SyncMode::Never)).map_err(|e| e.to_string())?;
    for set in preload {
        index.insert(set.clone());
    }
    let mut client = Client::new(
        crate::util::mix(opts.seed ^ 0x1dec),
        preload,
        Vec::new(),
        0.0,
    );
    let queries: Vec<Vec<u32>> = (0..20_000).map(|_| client.probe_set()).collect();
    let mut scratch = ServeScratch::default();
    let mut out = Vec::new();
    let mut probed = 0u64;
    let t = Instant::now();
    for q in &queries {
        probed += index.query_scratch(q, &mut scratch, &mut out).1;
    }
    let query_s = t.elapsed().as_secs_f64();
    let (_, counters, _) = index.shard_stats();
    let probed_total: u64 = counters.iter().map(|c| c.candidates_probed).sum();
    let pruned: u64 = counters.iter().map(|c| c.bitmap_pruned).sum();
    layers.insert("index.query_ns", query_s * 1e9 / queries.len() as f64);
    layers.insert(
        "index.probed_per_query",
        probed as f64 / queries.len() as f64,
    );
    layers.insert(
        "index.pruned_ratio",
        pruned as f64 / probed_total.max(1) as f64,
    );

    let dir = work.path("store-trace");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        shards: SHARDS,
        seed: SEED,
        gamma: GAMMA,
        initial_max_size: ServerConfig::default().initial_max_size,
        sync: SyncMode::Every,
    };
    let (store, _) = Store::open(&dir, cfg.clone()).map_err(|e| e.to_string())?;
    let (states, mut seq) = index.dump();
    let t = Instant::now();
    store.snapshot(seq, &states).map_err(|e| e.to_string())?;
    layers.insert("snapshot.s", t.elapsed().as_secs_f64());

    let writes = 2_000u64;
    let bytes0 = store.durable_wal_bytes();
    let (mut append_s, mut sync_s) = (0.0, 0.0);
    for i in 0..writes {
        let op = if i % 4 == 3 {
            WalOp::Remove {
                shard: (i % SHARDS as u64) as u32,
                local: i as u32,
            }
        } else {
            let set = client.probe_set();
            WalOp::Insert {
                shard: index.placement().bucket_of(&set) as u32,
                set,
            }
        };
        let t = Instant::now();
        let s = store
            .append(op, || {
                seq += 1;
                seq - 1
            })
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        store.ensure_durable(s).map_err(|e| e.to_string())?;
        append_s += (t2 - t).as_secs_f64();
        sync_s += t2.elapsed().as_secs_f64();
    }
    layers.insert("wal.append_us", append_s * 1e6 / writes as f64);
    layers.insert("wal.sync_us", sync_s * 1e6 / writes as f64);
    layers.insert(
        "wal.bytes_per_write",
        (store.durable_wal_bytes() - bytes0) as f64 / writes as f64,
    );
    drop(store);
    let t = Instant::now();
    let reopened = Store::open(&dir, cfg).map_err(|e| e.to_string())?;
    layers.insert("recover.open_s", t.elapsed().as_secs_f64());
    drop(reopened);
    Ok(())
}
