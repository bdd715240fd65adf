//! `join-mem` and `join-spill`: the `ssjoin jaccard` command users run, on
//! seeded `ssj-datagen address` records.
//!
//! Untraced, each measured command is a child process running exactly what
//! the `ssjoin` binary runs ([`ssjoin_main`]), timed from spawn to exit.
//! Traced, a child ([`trace_main`]) calls each layer's public functions in
//! turn and times every call from this file.

use crate::util::{median, pair_digest, quantile, repeat_setup, vmhwm_kb, WorkDir};
use crate::{E2e, Opts, Outcome};
use ssj_core::join::{self_join, verify_pairs_into, JoinOptions};
use ssj_core::partenum::GeneralPartEnum;
use ssj_core::predicate::Predicate;
use ssj_core::set::SetCollection;
use ssj_core::signature::{SigScratch, SignatureScheme};
use ssj_core::verify::{BitmapIndex, BitmapVerifier, Verifier};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const GAMMA: f64 = 0.8;
const THREADS: usize = 2;
/// `--mem-budget` of `join-spill`: small enough that the 20k-record input
/// outgrows it and the executor spills to many partitions.
const SPILL_BUDGET: &str = "1m";
/// The tokenizer seed and scheme seed the `ssjoin` CLI uses.
const TOKEN_SEED: u64 = 0x11e;
const SCHEME_SEED: u64 = 0xc11;

/// The `ssjoin` binary's entry point, plus a peak-RSS line on stderr.
pub fn ssjoin_main(args: &[String]) -> ExitCode {
    use ssj_cli::args::Command as Cmd;
    let cmd = match ssj_cli::args::parse_command(args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let code = match cmd {
        Cmd::Serve(opts) => match ssj_cli::run_serve(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Cmd::Join(cli) => {
            let outcome = match ssj_cli::execute(&cli) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if cli.stats {
                eprintln!("{}", outcome.stats_line);
            }
            if let Err(e) = ssj_cli::write_output(&cli, &outcome) {
                eprintln!("error writing output: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("perfbench ssjoin: only join modes and serve are wired");
            ExitCode::FAILURE
        }
    };
    eprintln!("vmhwm_kb={}", vmhwm_kb(None).unwrap_or(0));
    code
}

/// `count` seeded address records, as `ssj-datagen address --count` makes
/// them (base records plus ~25% noisy near-duplicates, truncated).
fn addresses(count: usize, seed: u64) -> Vec<String> {
    let base = ((count as f64 / 1.25).round() as usize).max(1);
    let mut v = ssj_datagen::generate_addresses(ssj_datagen::AddressConfig {
        base_records: base,
        seed,
        ..Default::default()
    });
    v.truncate(count);
    v
}

fn tokenize(lines: &[String]) -> SetCollection {
    lines
        .iter()
        .map(|l| ssj_text::token_set(l, TOKEN_SEED))
        .collect()
}

/// `key=value` pairs of a stats line; a trailing `s` (seconds) is dropped.
fn parse_kv(text: &str) -> BTreeMap<String, f64> {
    text.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            let v = v.strip_suffix('s').unwrap_or(v);
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Count and digest of an `a<TAB>b` output file.
fn output_digest(path: &Path) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut pairs = Vec::new();
    for line in text.lines() {
        let (a, b) = line
            .split_once('\t')
            .ok_or_else(|| format!("malformed output line {line:?}"))?;
        let a = a.parse().map_err(|_| format!("bad id in {line:?}"))?;
        let b = b.parse().map_err(|_| format!("bad id in {line:?}"))?;
        pairs.push((a, b));
    }
    Ok(pair_digest(pairs))
}

/// One finished child: wall seconds, its stderr key/values, output digest.
struct Run {
    secs: f64,
    kv: BTreeMap<String, f64>,
    digest: (u64, u64),
}

fn run_child(args: &[String], tmp: &Path, output: &Path) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(output);
    let t = Instant::now();
    let out = Command::new(exe)
        .args(args)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{args:?} failed ({}): {stderr}", out.status));
    }
    let mut kv = parse_kv(&stderr);
    kv.extend(parse_kv(&String::from_utf8_lossy(&out.stdout)));
    Ok(Run {
        secs,
        kv,
        digest: output_digest(output)?,
    })
}

/// The independent oracle: the prefix-filter baseline on the same sets.
fn oracle(coll: &SetCollection) -> Result<(u64, u64), String> {
    let pred = Predicate::Jaccard { gamma: GAMMA };
    let pf = ssj_baselines::PrefixFilter::build(
        pred,
        &[coll],
        None,
        ssj_baselines::PrefixFilterConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let result = self_join(&pf, coll, pred, None, JoinOptions::parallel(THREADS));
    Ok(pair_digest(result.pairs))
}

pub fn run(opts: &Opts, spill: bool) -> Result<Outcome, String> {
    let name = if spill { "join-spill" } else { "join-mem" };
    let records = match (spill, opts.tiny) {
        (false, false) => 100_000,
        (true, false) => 20_000,
        (_, true) => 3_000,
    };
    let work = WorkDir::create(&opts.work_root, name).map_err(|e| e.to_string())?;
    let tmp = work.path("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let input = work.path("input.txt");
    let output = work.path("pairs.tsv");

    // Set-up: generate the records and write the input file.
    let data_seed = crate::util::mix(opts.seed ^ 0xadd2);
    let (setup_s, lines) = repeat_setup(|| {
        let lines = addresses(records, data_seed);
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(&input, text).map_err(|e| e.to_string())?;
        Ok(lines)
    })?;
    let expected = oracle(&tokenize(&lines))?;
    drop(lines);

    let s = |x: &str| x.to_string();
    let in_memory_cmd = vec![
        s("ssjoin"),
        s("jaccard"),
        s("--input"),
        input.display().to_string(),
        s("--threshold"),
        GAMMA.to_string(),
        s("--threads"),
        THREADS.to_string(),
        s("--output"),
        output.display().to_string(),
        s("--stats"),
    ];
    let mut cmd = in_memory_cmd.clone();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    if spill {
        cmd.extend([s("--mem-budget"), s(SPILL_BUDGET)]);
        // The spilled output must also equal the in-memory command's.
        attempted += 1;
        let in_memory = run_child(&in_memory_cmd, &tmp, &output)?;
        if in_memory.digest != expected {
            eprintln!(
                "oracle: in-memory join {:?} != prefix filter {expected:?}",
                in_memory.digest
            );
            correct = false;
        }
    }

    // Untraced: whole commands until the window is used (at least 3, or 2
    // when half the window goes to the traced run).
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let min_runs = if opts.trace { 2 } else { 3 };
    let mut runs = Vec::new();
    let t0 = Instant::now();
    while runs.len() < min_runs || t0.elapsed().as_secs_f64() < window {
        attempted += 1;
        match run_child(&cmd, &tmp, &output) {
            Ok(r) => {
                if r.digest != expected {
                    eprintln!(
                        "oracle: {name} output {:?} != expected {expected:?}",
                        r.digest
                    );
                    correct = false;
                }
                runs.push(r);
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                failed += 1;
                if failed > 3 {
                    return Err(e);
                }
            }
        }
    }
    let e2e = summarize(&runs, records, setup_s);
    print_costs(name, &runs, e2e.latency_p50_us / 1e6, records, expected.0);

    let mut outcome = Outcome {
        correct,
        attempted,
        failed,
        e2e,
        ..Outcome::default()
    };
    if opts.trace {
        let mut args = vec![
            s("trace-join"),
            s(if spill { "spill" } else { "mem" }),
            input.display().to_string(),
            output.display().to_string(),
        ];
        if spill {
            args.push(s(SPILL_BUDGET));
        }
        let mut traced = Vec::new();
        let t1 = Instant::now();
        while traced.len() < 2 || t1.elapsed().as_secs_f64() < window {
            outcome.attempted += 1;
            let r = run_child(&args, &tmp, &output)?;
            if r.digest != expected {
                eprintln!(
                    "oracle: traced {name} output {:?} != expected {expected:?}",
                    r.digest
                );
                outcome.correct = false;
            }
            traced.push(r);
        }
        outcome.traced = Some(summarize(&traced, records, outcome.e2e.setup_s));
        // Per-layer values: the median over traced runs of each key.
        for (key, _) in crate::LAYER {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.kv.get(*key).copied())
                .collect();
            if !vals.is_empty() {
                outcome.layers.insert(key, median(&vals));
            }
        }
        println!(
            "layers {name}: {}",
            outcome
                .layers
                .iter()
                .map(|(k, v)| format!("{k}={v:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    Ok(outcome)
}

fn summarize(runs: &[Run], records: usize, setup_s: f64) -> E2e {
    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let rss: Vec<f64> = runs
        .iter()
        .map(|r| r.kv.get("vmhwm_kb").copied().unwrap_or(0.0) / 1024.0)
        .collect();
    let p50 = median(&secs);
    E2e {
        setup_s,
        peak_rss_mb: median(&rss),
        latency_p50_us: p50 * 1e6,
        throughput_per_s: records as f64 / p50,
    }
}

/// Section 3.2 cost lines: base counts, per-unit costs, and each stage's
/// share of the command's wall time (medians over the window's commands).
fn print_costs(name: &str, runs: &[Run], join_s: f64, records: usize, pairs: u64) {
    let med = |k: &str| {
        median(
            &runs
                .iter()
                .filter_map(|r| r.kv.get(k).copied())
                .collect::<Vec<_>>(),
        )
    };
    let (sigs, coll, cands) = (med("signatures"), med("collisions"), med("candidates"));
    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    println!(
        "e2e {name}: join_s={join_s:.4} slowest_s={:.4} commands={} records={records} \
         output_pairs={pairs}",
        quantile(&secs, 1.0),
        runs.len()
    );
    println!("cost {name}: signatures={sigs} collisions={coll} candidates={cands} output={pairs}");
    let stages: &[&str] = if name == "join-spill" {
        &["siggen", "spill", "probe", "postfilter"]
    } else {
        &["siggen", "candpair", "postfilter"]
    };
    let cand_stage = if name == "join-spill" {
        "probe"
    } else {
        "candpair"
    };
    let per = |secs: f64, n: f64| if n > 0.0 { secs * 1e9 / n } else { 0.0 };
    println!(
        "cost {name}: ns_per_sig={:.1} ns_per_collision={:.1} ns_per_candidate={:.1}",
        per(med("siggen"), sigs),
        per(med(cand_stage), coll),
        per(med("postfilter"), cands)
    );
    let mut share = String::new();
    let mut staged = 0.0;
    for stage in stages {
        let v = med(stage);
        staged += v;
        share.push_str(&format!(" {stage}={:.1}%", 100.0 * v / join_s));
    }
    println!(
        "cost {name}: share of join_s{share} other(parse,tokenize,write,process)={:.1}%",
        100.0 * (join_s - staged) / join_s
    );
}

/// Signatures of every set, generated over `THREADS` workers the way the
/// join driver does (sorted and deduplicated per set). Returns the count.
fn signature_pass(scheme: &GeneralPartEnum, coll: &SetCollection) -> u64 {
    let n = coll.len();
    let chunk = n.div_ceil(THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                scope.spawn(move || {
                    let mut scratch = SigScratch::default();
                    let mut sigs = Vec::new();
                    let mut count = 0u64;
                    for id in lo..(lo + chunk).min(n) {
                        sigs.clear();
                        scheme.signatures_scratch(coll.set(id as u32), &mut scratch, &mut sigs);
                        sigs.sort_unstable();
                        sigs.dedup();
                        count += sigs.len() as u64;
                    }
                    count
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("signature worker"))
            .sum()
    })
}

/// The traced join child: the same work as one command, as separate timed
/// calls into the text, partenum, join, verify and extern layers. Prints
/// the layer values as `key=value` on stdout.
pub fn trace_main(args: &[String]) -> ExitCode {
    match trace(args) {
        Ok(kv) => {
            let line: Vec<String> = kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("{}", line.join(" "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-join: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace(args: &[String]) -> Result<BTreeMap<&'static str, f64>, String> {
    let usage = "usage: trace-join <mem|spill> <input> <output> [budget]";
    let [kind, input, output, rest @ ..] = args else {
        return Err(usage.into());
    };
    if kind != "mem" && kind != "spill" {
        return Err(usage.into());
    }
    let pred = Predicate::Jaccard { gamma: GAMMA };
    let mut kv = BTreeMap::new();

    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let t = Instant::now();
    let coll = tokenize(&lines);
    kv.insert("text.tokenize_s", t.elapsed().as_secs_f64());

    let scheme = GeneralPartEnum::new(pred, coll.max_set_len().max(1), SCHEME_SEED)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let sigs = signature_pass(&scheme, &coll);
    let sig_s = t.elapsed().as_secs_f64();
    kv.insert("sig.count", sigs as f64);
    kv.insert("sig.ns_per_sig", sig_s * 1e9 / sigs.max(1) as f64);

    let pairs = if kind == "spill" {
        let budget = rest.first().ok_or("spill needs a budget")?;
        let budget = ssj_extern::parse_mem_budget(budget).map_err(|e| e.to_string())?;
        let seg_path = std::env::temp_dir().join(format!("trace_{}.seg", std::process::id()));
        ssj_extern::write_collection_segment(&seg_path, &coll, 0).map_err(|e| e.to_string())?;
        let mut seg = ssj_extern::Segment::open_path(&seg_path).map_err(|e| e.to_string())?;
        let cfg = ssj_extern::ExternConfig {
            mem_budget: budget,
            ..Default::default()
        };
        let result = ssj_extern::external_self_join(&mut seg, &scheme, pred, None, &cfg);
        std::fs::remove_file(&seg_path).ok();
        let (pairs, s) = result.map_err(|e| e.to_string())?;
        let cands = s.candidates.max(1) as f64;
        kv.insert("extern.partitions", s.partitions as f64);
        kv.insert("extern.peak_bytes", s.peak_bytes as f64);
        kv.insert("extern.spill_bytes", s.spill_bytes as f64);
        kv.insert("extern.spill_s", s.spill_secs);
        kv.insert("extern.probe_s", s.probe_secs);
        kv.insert("extern.verify_s", s.verify_secs);
        // The executor's own candidate and verify stages.
        kv.insert("cand.collisions", s.collisions as f64);
        kv.insert("cand.count", s.candidates as f64);
        kv.insert("cand.s", s.probe_secs);
        kv.insert(
            "cand.ns_per_collision",
            s.probe_secs * 1e9 / s.collisions.max(1) as f64,
        );
        kv.insert("cand.useful_ratio", pairs.len() as f64 / cands);
        kv.insert("verify.s", s.verify_secs);
        kv.insert("verify.pruned_ratio", s.bitmap_pruned as f64 / cands);
        kv.insert("verify.ns_per_candidate", s.verify_secs * 1e9 / cands);
        pairs
    } else {
        // Candidate generation: the driver with verification off. Its
        // signature step repeats the pass timed above, so that span's
        // length is subtracted to leave the candidate stage's self time.
        let opts = JoinOptions {
            threads: THREADS,
            verify: false,
            bitmap_filter: true,
        };
        let t = Instant::now();
        let cand = self_join(&scheme, &coll, pred, None, opts);
        let cand_s = (t.elapsed().as_secs_f64() - sig_s).max(0.0);
        let stats = &cand.stats;
        let cands = stats.candidate_pairs.max(1) as f64;
        kv.insert("cand.collisions", stats.signature_collisions as f64);
        kv.insert("cand.count", stats.candidate_pairs as f64);
        kv.insert("cand.s", cand_s);
        kv.insert(
            "cand.ns_per_collision",
            cand_s * 1e9 / stats.signature_collisions.max(1) as f64,
        );

        let t = Instant::now();
        let encoded: Vec<u64> = cand
            .pairs
            .iter()
            .map(|&(a, b)| (u64::from(a) << 32) | u64::from(b))
            .collect();
        drop(cand);
        let bitmaps = BitmapIndex::for_collection_width(
            &coll,
            BitmapIndex::words_for_mean(coll.avg_set_len()),
        );
        let verifier = BitmapVerifier::new(pred, None, &bitmaps, &bitmaps);
        let mut pairs = Vec::new();
        verify_pairs_into(&encoded, &coll, &coll, &verifier, THREADS, &mut pairs);
        let verify_s = t.elapsed().as_secs_f64();
        kv.insert("verify.s", verify_s);
        kv.insert(
            "verify.pruned_ratio",
            verifier.bitmap_pruned() as f64 / cands,
        );
        kv.insert("verify.ns_per_candidate", verify_s * 1e9 / cands);
        kv.insert("cand.useful_ratio", pairs.len() as f64 / cands);
        pairs
    };

    let mut out = String::with_capacity(pairs.len() * 12);
    for (a, b) in &pairs {
        out.push_str(&format!("{a}\t{b}\n"));
    }
    std::fs::write(output, out).map_err(|e| format!("{output}: {e}"))?;
    kv.insert("vmhwm_kb", vmhwm_kb(None).unwrap_or(0) as f64);
    Ok(kv)
}
