//! `join_bench` — the committed-baseline benchmark for batch SSJoins.
//!
//! ```text
//! cargo run --release -p ssj-bench --bin join_bench            # full: 10k sets
//! cargo run --release -p ssj-bench --bin join_bench -- --quick # CI-sized
//! ```
//!
//! Unlike the `reproduce` harness (which sweeps the paper's whole grid),
//! this runs a small fixed cell set and appends one JSON line per cell to
//! `BENCH_join.json` — the file `cargo xtask benchdiff` treats as the
//! perf baseline. Counters (`signatures`, `candidates`, `f2`,
//! `output_pairs`) are seeded-deterministic and diffed exactly; timings
//! are band-checked.
//!
//! The `EXT` cell runs the same join through `ssj-extern`'s out-of-core
//! spill executor under `--mem-budget`, with the cost-model scheme
//! `ssjoin` builds (`GeneralPartEnum::optimized`), so the baseline also pins the
//! spill counters (`partitions`, `peak_bytes`, `spilled_records`,
//! `spill_bytes`). `peak_rss_kb` (VmHWM) is recorded for the perf
//! trajectory but is machine-dependent and never diffed.

use ssj_bench::datasets::address_tokens;
use ssj_bench::harness::{run_jaccard, JaccardAlgo, RunRecord};
use ssj_core::partenum::GeneralPartEnum;
use ssj_core::predicate::Predicate;
use ssj_core::set::SetCollection;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
join_bench — fixed-cell SSJoin benchmark feeding the perf baseline

Each run appends one machine-readable JSON line per cell to
BENCH_join.json so results accumulate into a perf trajectory; `cargo
xtask benchdiff` diffs a fresh run against the committed baseline.

OPTIONS:
  --quick             CI-sized run (2k sets) instead of the full 10k
  --sets N            input sets per cell (default 10000)
  --threads N         join worker threads (default 1: deterministic order)
  --threshold G       jaccard threshold (default 0.8)
  --seed N            rng/signature seed (default 42)
  --algos LIST        comma-separated subset of PEN,PF,EXT (default all)
  --mem-budget B      EXT cell memory budget, e.g. 1m, 8m (default 1m:
                      small enough to force spilling at every --sets size)
  --bench-out PATH    where to append the JSON records
                      (default BENCH_join.json; - disables)
";

/// One benchmark cell: an in-memory harness algorithm or the external
/// spill executor. Kept local to this binary — `JaccardAlgo` is matched
/// exhaustively by the reproduction experiments and collision estimator,
/// and the external executor is not part of the paper's algorithm grid.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellAlgo {
    /// A `ssj_bench::harness` in-memory algorithm.
    Mem(JaccardAlgo),
    /// `ssj_extern::external_self_join` under `--mem-budget`.
    Ext,
}

struct BenchArgs {
    sets: usize,
    threads: usize,
    gamma: f64,
    seed: u64,
    algos: Vec<CellAlgo>,
    mem_budget: u64,
    bench_out: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            sets: 10_000,
            threads: 1,
            gamma: 0.8,
            seed: 42,
            algos: vec![
                CellAlgo::Mem(JaccardAlgo::Pen),
                CellAlgo::Mem(JaccardAlgo::Pf),
                CellAlgo::Ext,
            ],
            mem_budget: 1 << 20,
            bench_out: Some("BENCH_join.json".to_string()),
        }
    }
}

fn parse_algos(list: &str) -> Result<Vec<CellAlgo>, String> {
    list.split(',')
        .map(|name| match name.trim() {
            "PEN" | "pen" => Ok(CellAlgo::Mem(JaccardAlgo::Pen)),
            "PF" | "pf" => Ok(CellAlgo::Mem(JaccardAlgo::Pf)),
            "EXT" | "ext" => Ok(CellAlgo::Ext),
            other => Err(format!("unknown algo {other:?} (expected PEN, PF, or EXT)")),
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => parsed.sets = 2_000,
            "--sets" => {
                parsed.sets = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad --sets".to_string())?
            }
            "--threads" => {
                parsed.threads = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?
            }
            "--threshold" => {
                parsed.gamma = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad --threshold".to_string())?
            }
            "--seed" => {
                parsed.seed = next(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--algos" => parsed.algos = parse_algos(next(&mut i)?)?,
            "--mem-budget" => {
                parsed.mem_budget = ssj_extern::parse_mem_budget(next(&mut i)?)
                    .map_err(|e| format!("bad --mem-budget: {e}"))?
            }
            "--bench-out" => {
                let path = next(&mut i)?;
                parsed.bench_out = if path == "-" {
                    None
                } else {
                    Some(path.clone())
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 1;
    }
    if parsed.sets == 0 || parsed.threads == 0 || parsed.algos.is_empty() {
        return Err("--sets, --threads, and --algos must be non-empty".into());
    }
    Ok(parsed)
}

/// Bitmap-filter verification counters emitted with every cell. Both are
/// seeded-deterministic (they depend only on the deduplicated candidate
/// set and the per-set bitmaps) and exact-diffed by benchdiff.
#[derive(Clone, Copy)]
struct BitmapCounters {
    pruned: u64,
    survivors: u64,
}

/// Spill-executor fields appended to the EXT cell's JSON record. All but
/// `peak_rss_kb` are seeded-deterministic and exact-diffed by benchdiff.
struct ExtExtras {
    mem_budget: u64,
    partitions: usize,
    peak_bytes: u64,
    spilled_records: u64,
    spill_bytes: u64,
    peak_rss_kb: u64,
}

/// Whole-process peak resident set in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable. Informational only — it
/// covers the PEN/PF cells run earlier in the same process too, so it is
/// an upper bound on the EXT cell, never a diffed counter.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Runs the EXT cell: the collection is written to a temporary segment
/// and self-joined by the out-of-core executor under `budget` bytes.
fn run_ext(
    collection: &SetCollection,
    gamma: f64,
    seed: u64,
    budget: u64,
) -> Result<(RunRecord, ExtExtras, BitmapCounters), String> {
    let pred = Predicate::Jaccard { gamma };
    // The scheme `ssjoin --mem-budget` builds: cost-model parameters.
    let scheme = GeneralPartEnum::optimized(pred, &[collection], seed)
        .map_err(|e| format!("EXT scheme construction failed: {e}"))?;
    let path = std::env::temp_dir().join(format!("join_bench_ext_{}.seg", std::process::id()));
    let run: Result<ssj_extern::ExternStats, String> = (|| {
        ssj_extern::write_collection_segment(&path, collection, 0)
            .map_err(|e| format!("EXT segment write failed: {e}"))?;
        let mut seg = ssj_extern::Segment::open_path(&path)
            .map_err(|e| format!("EXT segment open failed: {e}"))?;
        let cfg = ssj_extern::ExternConfig {
            mem_budget: budget,
            min_partitions: 1,
            spill_dir: None,
            ..Default::default()
        };
        let (_pairs, stats) = ssj_extern::external_self_join(&mut seg, &scheme, pred, None, &cfg)
            .map_err(|e| format!("EXT join failed: {e}"))?;
        Ok(stats)
    })();
    std::fs::remove_file(&path).ok();
    let stats = run?;
    let record = RunRecord {
        experiment: "baseline".to_string(),
        dataset: "address".to_string(),
        algo: "EXT".to_string(),
        input_size: collection.len(),
        param: gamma,
        sig_gen_secs: stats.sig_secs,
        cand_gen_secs: stats.spill_secs + stats.probe_secs,
        verify_secs: stats.verify_secs,
        total_secs: stats.sig_secs + stats.spill_secs + stats.probe_secs + stats.verify_secs,
        // Self-join: the Section 3.2 expression counts the single input's
        // signatures on both sides, matching `JoinStats::f2`.
        f2: 2 * stats.signatures + stats.collisions,
        signatures: stats.signatures,
        collisions: stats.collisions,
        candidates: stats.candidates,
        output_pairs: stats.output_pairs,
        recall: None,
        notes: format!("mem_budget={budget} partitions={}", stats.partitions),
    };
    let extras = ExtExtras {
        mem_budget: stats.mem_budget,
        partitions: stats.partitions,
        peak_bytes: stats.peak_bytes,
        spilled_records: stats.spilled_records,
        spill_bytes: stats.spill_bytes,
        peak_rss_kb: peak_rss_kb(),
    };
    let bitmap = BitmapCounters {
        pruned: stats.bitmap_pruned,
        survivors: stats.bitmap_survivors,
    };
    Ok((record, extras, bitmap))
}

/// One JSON line in the `BENCH_join.json` schema `cargo xtask benchdiff`
/// keys on (dataset, algo, gamma, input_size, threads, seed). EXT cells
/// carry the extra spill counters.
fn to_json_record(
    r: &RunRecord,
    ext: Option<&ExtExtras>,
    bitmap: BitmapCounters,
    threads: usize,
    seed: u64,
    unix_secs: u64,
) -> String {
    let ext_fields = match ext {
        Some(e) => format!(
            ",\"mem_budget\":{},\"partitions\":{},\"peak_bytes\":{},\
             \"spilled_records\":{},\"spill_bytes\":{},\"peak_rss_kb\":{}",
            e.mem_budget,
            e.partitions,
            e.peak_bytes,
            e.spilled_records,
            e.spill_bytes,
            e.peak_rss_kb,
        ),
        None => String::new(),
    };
    format!(
        "{{\"schema\":1,\"bench\":\"join\",\"dataset\":\"{}\",\"algo\":\"{}\",\
         \"gamma\":{},\"input_size\":{},\"threads\":{threads},\"seed\":{seed},\
         \"signatures\":{},\"candidates\":{},\"f2\":{},\"output_pairs\":{},\
         \"bitmap_pruned\":{},\"bitmap_survivors\":{},\
         \"sig_gen_secs\":{:.6},\"cand_gen_secs\":{:.6},\"verify_secs\":{:.6},\
         \"total_secs\":{:.6}{ext_fields},\"unix_secs\":{unix_secs}}}",
        r.dataset,
        r.algo,
        r.param,
        r.input_size,
        r.signatures,
        r.candidates,
        r.f2,
        r.output_pairs,
        bitmap.pruned,
        bitmap.survivors,
        r.sig_gen_secs,
        r.cand_gen_secs,
        r.verify_secs,
        r.total_secs,
    )
}

/// Appends JSON records as lines to `path`, creating the file on first use.
fn append_records(path: &str, records: &[String]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for record in records {
        writeln!(file, "{record}")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "join_bench: {} address sets, gamma {}, threads {}...",
        parsed.sets, parsed.gamma, parsed.threads
    );
    let collection = address_tokens(parsed.sets);
    let mut records = Vec::new();
    for &algo in &parsed.algos {
        let (record, extras, bitmap) = match algo {
            CellAlgo::Mem(algo) => {
                let (result, notes) =
                    run_jaccard(&collection, parsed.gamma, algo, parsed.threads, parsed.seed);
                let bitmap = BitmapCounters {
                    pruned: result.stats.bitmap_pruned,
                    survivors: result.stats.bitmap_survivors,
                };
                let record = RunRecord::from_result(
                    "baseline",
                    "address",
                    &algo.label(),
                    parsed.sets,
                    parsed.gamma,
                    &result,
                    notes,
                );
                (record, None, bitmap)
            }
            CellAlgo::Ext => {
                match run_ext(&collection, parsed.gamma, parsed.seed, parsed.mem_budget) {
                    Ok((record, extras, bitmap)) => (record, Some(extras), bitmap),
                    Err(e) => {
                        eprintln!("join_bench: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
        println!(
            "{:<4}  sig {:>9}  cand {:>9}  f2 {:>11}  out {:>7}  bmprune {:>9}  total {:>8.3}s",
            record.algo,
            record.signatures,
            record.candidates,
            record.f2,
            record.output_pairs,
            bitmap.pruned,
            record.total_secs,
        );
        records.push((record, extras, bitmap));
    }
    if let Some(path) = &parsed.bench_out {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let lines: Vec<String> = records
            .iter()
            .map(|(r, e, b)| {
                to_json_record(r, e.as_ref(), *b, parsed.threads, parsed.seed, unix_secs)
            })
            .collect();
        match append_records(path, &lines) {
            Ok(()) => eprintln!("join_bench: appended {} record(s) to {path}", lines.len()),
            Err(e) => {
                eprintln!("join_bench: cannot append to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
