//! `perfbench`: the ssjoin benchmark.
//!
//! ```text
//! perfbench --workload <join-mem|join-spill|serve-durable|cluster-fanout>
//!           --seed N --seconds S --trace <0|1> [--scale full|tiny]
//! perfbench ssjoin <ssjoin arguments>      # what the `ssjoin` binary runs
//! perfbench trace-join <mem|spill> <input> <output> [budget]
//! ```
//!
//! The first form runs one workload and prints human-readable lines, then
//! one JSON line with `correct`, `attempted`, `failed` and the metrics:
//! the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`. The other two forms are the child processes it spawns.
//! See README.md for the workloads and the metric map.

mod cluster;
mod join;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use util::Report;

/// Per-layer metrics, reported by every traced run. A layer that does not
/// run on a workload reports 0.
pub const LAYER: &[(&str, &str)] = &[
    ("text.tokenize_s", "s"),
    ("sig.count", "count"),
    ("sig.ns_per_sig", "ns"),
    ("cand.collisions", "count"),
    ("cand.count", "count"),
    ("cand.s", "s"),
    ("cand.ns_per_collision", "ns"),
    ("cand.useful_ratio", "ratio"),
    ("verify.s", "s"),
    ("verify.pruned_ratio", "ratio"),
    ("verify.ns_per_candidate", "ns"),
    ("extern.partitions", "count"),
    ("extern.peak_bytes", "bytes"),
    ("extern.spill_bytes", "bytes"),
    ("extern.spill_s", "s"),
    ("extern.probe_s", "s"),
    ("extern.verify_s", "s"),
    ("wire.parse_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("service.p50_us", "us"),
    ("service.p99_us", "us"),
    ("shed.overloaded", "count"),
    ("shed.timeouts", "count"),
    ("index.probed_per_query", "count"),
    ("index.pruned_ratio", "ratio"),
    ("index.query_ns", "ns"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_write", "bytes"),
    ("snapshot.s", "s"),
    ("recover.open_s", "s"),
    ("router.call_p50_us", "us"),
    ("router.call_p99_us", "us"),
    ("router.calls_per_query", "count"),
    ("router.merge_us", "us"),
    ("trace.overhead.latency_p50_us", "ratio"),
    ("trace.overhead.throughput_per_s", "ratio"),
    ("trace.overhead.peak_rss_mb", "ratio"),
];

/// Parsed `--workload` invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: every workload shrunk to a second or two.
    pub tiny: bool,
    /// Scratch root inside the checkout.
    pub work_root: PathBuf,
}

/// One measurement of the end-to-end metrics, which every workload reports
/// (README.md gives each one's meaning per workload).
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub latency_p50_us: f64,
    pub throughput_per_s: f64,
}

impl E2e {
    /// `(name, value, unit)` of each metric.
    fn values(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("latency_p50_us", self.latency_p50_us, "us"),
            ("throughput_per_s", self.throughput_per_s, "1/s"),
        ]
    }
}

/// What a workload hands back: correctness, counts, the untraced
/// end-to-end measurement and, on traced runs, the traced one plus the
/// per-layer values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: E2e,
    pub traced: Option<E2e>,
    pub layers: BTreeMap<&'static str, f64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut work_root = PathBuf::from("perfbench/.work");
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => workload = Some(val?.clone()),
            "--seed" => seed = val?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = val?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => trace = val? == "1",
            "--scale" => tiny = val? == "tiny",
            "--work" => work_root = PathBuf::from(val?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        work_root,
    })
}

fn report_of(opts: &Opts, out: &Outcome) -> Report {
    let mut report = Report {
        correct: out.correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics: Vec::new(),
    };
    if !opts.trace {
        for (name, value, unit) in out.e2e.values() {
            report.put(name, value, unit);
        }
        return report;
    }
    let mut layers: BTreeMap<String, f64> = out
        .layers
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    if let Some(traced) = &out.traced {
        // Set-up is never traced, so it has no overhead entry.
        for ((name, base, _), (_, traced, _)) in out.e2e.values().into_iter().zip(traced.values()) {
            if name != "setup_s" && base != 0.0 {
                layers.insert(format!("trace.overhead.{name}"), traced / base - 1.0);
            }
        }
    }
    for (name, unit) in LAYER {
        report.put(name, layers.get(*name).copied().unwrap_or(0.0), unit);
    }
    report
}

fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "join-mem" => join::run(opts, false),
        "join-spill" => join::run(opts, true),
        "serve-durable" => serve::run(opts),
        "cluster-fanout" => cluster::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ssjoin") => return join::ssjoin_main(&args[1..]),
        Some("trace-join") => return join::trace_main(&args[1..]),
        _ => {}
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let e = &outcome.e2e;
    println!(
        "e2e {}: setup_s={:.4} peak_rss_mb={:.1} latency_p50_us={:.1} throughput_per_s={:.1} \
         attempted={} failed={}",
        opts.workload,
        e.setup_s,
        e.peak_rss_mb,
        e.latency_p50_us,
        e.throughput_per_s,
        outcome.attempted,
        outcome.failed
    );
    let report = report_of(&opts, &outcome);
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: an oracle check failed", opts.workload);
        ExitCode::FAILURE
    }
}
