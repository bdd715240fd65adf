//! The signature-based join driver (Figure 2).
//!
//! Every algorithm in this workspace — PartEnum, WtEnum, prefix filter, the
//! identity scheme, LSH — plugs its [`SignatureScheme`] into this one driver,
//! which executes the scheme-independent steps:
//!
//! 1–2. generate signatures for each input set,
//! 3.   find all pairs whose signature sets overlap (a sort-merge "join" on
//!      the signature value, [`crate::candidates`]), and
//! 4.   post-filter candidates with the actual predicate.
//!
//! The driver is instrumented with the Section 3.2 measures (see
//! [`crate::stats::JoinStats`]) and optionally parallelizes signature
//! generation, candidate sharding, and verification across threads.

use crate::candidates::{bucket_sort, cross_run_pairs, distinct_pairs, self_run_pairs, Posting};
use crate::predicate::Predicate;
use crate::set::{SetCollection, SetId, WeightMap};
use crate::signature::{Signature, SignatureScheme};
use crate::stats::JoinStats;
use crate::verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
use std::time::Instant;

/// Execution options for the join driver.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Worker threads. 1 runs fully sequentially.
    pub threads: usize,
    /// Run the post-filter (step 4). Disable to obtain raw candidate pairs —
    /// e.g. for string joins, where verification uses edit distance on the
    /// original strings instead of the SSJoin predicate (Section 8.2).
    pub verify: bool,
    /// Front the post-filter with the bitmap intersection bound
    /// ([`crate::verify::BitmapVerifier`]) for unweighted predicates.
    /// Output is byte-identical either way (difftest compares both); off
    /// skips building the per-collection bitmaps.
    pub bitmap_filter: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            verify: true,
            bitmap_filter: true,
        }
    }
}

impl JoinOptions {
    /// Sequential execution with verification.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel execution over `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// The same options with the bitmap filter toggled.
    pub fn with_bitmap_filter(self, on: bool) -> Self {
        Self {
            bitmap_filter: on,
            ..self
        }
    }
}

/// Output of a join: the matching pairs and the collected statistics.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Matching `(r, s)` id pairs. For self-joins, `r < s`.
    pub pairs: Vec<(SetId, SetId)>,
    /// Instrumentation (Section 3.2 measures and phase timings).
    pub stats: JoinStats,
    /// Whether the scheme was approximate (LSH): `pairs` may then be
    /// incomplete; exact schemes always yield the complete answer.
    pub approximate: bool,
}

/// Unwraps a scoped worker's result, forwarding a worker panic to the
/// caller's thread instead of swallowing it.
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The shard of `shards` that owns signature `sig`: signatures are hashes,
/// so the high bits of `sig · shards` spread them evenly without a division.
#[inline]
fn shard_of(sig: Signature, shards: usize) -> usize {
    ((u128::from(sig) * shards as u128) >> 64) as usize
}

/// One signature shard's postings, as the parts generation workers made.
type Shard = Vec<Vec<Posting>>;

/// Generates every set's signatures as `(signature, set id)` postings,
/// grouped into `max(threads, 1)` signature shards ([`shard_of`]), in
/// parallel chunks of sets. Each posting is unique
/// ([`SignatureScheme::signature_set`] deduplicates per set).
fn generate_postings(
    scheme: &impl SignatureScheme,
    collection: &SetCollection,
    threads: usize,
) -> Vec<Shard> {
    let n = collection.len();
    let shards = threads.max(1);
    let chunk_postings = |lo: usize, hi: usize| {
        let mut parts: Vec<Vec<Posting>> = vec![Vec::new(); shards];
        let mut buf = Vec::new();
        let mut scratch = crate::signature::SigScratch::default();
        for id in lo..hi {
            let id = crate::cast::set_id(id);
            scheme.signature_set(collection.set(id), &mut scratch, &mut buf);
            for &sig in &buf {
                parts[shard_of(sig, shards)].push((sig, id));
            }
        }
        parts
    };
    let workers: Vec<Vec<Vec<Posting>>> = if threads <= 1 || n < 1024 {
        vec![chunk_postings(0, n)]
    } else {
        let chunk = n.div_ceil(threads);
        let chunk_postings = &chunk_postings;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || chunk_postings(t * chunk, ((t + 1) * chunk).min(n))))
                .collect();
            handles.into_iter().map(join_worker).collect()
        })
    };
    let mut out: Vec<Shard> = vec![Vec::new(); shards];
    for parts in workers {
        for (shard, part) in out.iter_mut().zip(parts) {
            shard.push(part);
        }
    }
    out
}

/// Postings across all shards: the signature count `JoinStats` reports.
fn signature_count(shards: &[Shard]) -> u64 {
    shards.iter().flatten().map(Vec::len).sum::<usize>() as u64
}

/// Candidate generation (step 3): one worker per signature shard of
/// [`generate_postings`] enumerates the shard's buckets whole with the
/// sorted-run pass ([`crate::candidates`]). `right` is `None` for a
/// self-join; otherwise its shards pair up with `left`'s. Returns the
/// ascending distinct pairs, encoded `(a << 32) | b`, and the collision
/// count.
fn sorted_run_candidates(
    left: Vec<Shard>,
    right: Option<Vec<Shard>>,
    threads: usize,
) -> (Vec<u64>, u64) {
    let rights: Vec<Option<Shard>> = match right {
        Some(shards) => shards.into_iter().map(Some).collect(),
        None => left.iter().map(|_| None).collect(),
    };
    // Consumes the parts, so each shard's unsorted copy is freed early.
    let sorted = |parts: Shard| {
        let mut out = Vec::new();
        bucket_sort(&parts, |p| p.0, &mut out);
        out
    };
    let run = |l: Shard, r: Option<Shard>| {
        let (l, mut pairs) = (sorted(l), Vec::new());
        let collisions = match r {
            None => self_run_pairs(&l, &mut pairs),
            Some(r) => cross_run_pairs(&l, &sorted(r), &mut pairs),
        };
        (pairs, collisions)
    };
    let results: Vec<(Vec<u64>, u64)> = if threads <= 1 {
        left.into_iter()
            .zip(rights)
            .map(|(l, r)| run(l, r))
            .collect()
    } else {
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = left
                .into_iter()
                .zip(rights)
                .map(|(l, r)| scope.spawn(move || run(l, r)))
                .collect();
            handles.into_iter().map(join_worker).collect()
        })
    };
    let collisions = results.iter().map(|(_, c)| c).sum();
    let shards: Vec<Vec<u64>> = results.into_iter().map(|(pairs, _)| pairs).collect();
    (distinct_pairs(&shards), collisions)
}

/// Decodes a `(min << 32) | max` candidate pair into its set ids.
#[inline]
fn decode_pair(encoded: u64) -> (SetId, SetId) {
    (
        crate::cast::set_id_u64(encoded >> 32),
        crate::cast::set_id_u64(encoded & 0xffff_ffff),
    )
}

/// Post-filters encoded candidate pairs with a [`Verifier`], writing the
/// surviving pairs into the caller-provided `out` (cleared first).
///
/// The verifier decides each pair ([`ExactVerifier`] for the plain
/// predicate path, [`BitmapVerifier`] for the bound-then-merge fast
/// path — both produce identical output). The parallel path writes
/// survivors directly into disjoint chunks of `out` and compacts them in
/// place, so verification allocates nothing per candidate pair — workers
/// never build intermediate result vectors (the counting-allocator
/// witness in `tests/alloc_witness.rs` pins this for the sequential path,
/// with both verifier flavors).
pub fn verify_pairs_into<V: Verifier>(
    pairs: &[u64],
    left: &SetCollection,
    right: &SetCollection,
    verifier: &V,
    threads: usize,
    out: &mut Vec<(SetId, SetId)>,
) {
    out.clear();
    let check = |encoded: u64| -> Option<(SetId, SetId)> {
        let (a, b) = decode_pair(encoded);
        verifier
            .verify_pair(a, b, left.set(a), right.set(b))
            .then_some((a, b))
    };
    if threads <= 1 || pairs.len() < 4096 {
        out.extend(pairs.iter().filter_map(|&p| check(p)));
        return;
    }
    // Each worker compacts its chunk's survivors into the chunk's prefix of
    // `out`; the single-threaded pass below packs the prefixes together.
    let chunk = pairs.len().div_ceil(threads);
    out.resize(pairs.len(), (0, 0));
    let check = &check;
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(src, dst)| {
                scope.spawn(move || {
                    let mut kept = 0;
                    for &p in src {
                        if let Some(pair) = check(p) {
                            dst[kept] = pair;
                            kept += 1;
                        }
                    }
                    kept
                })
            })
            // hotlint: allow(hot-alloc): one handle per worker thread — bounded by the thread count, not the candidate count.
            .collect();
        // hotlint: allow(hot-alloc): one count per worker thread — bounded by the thread count, not the candidate count.
        handles.into_iter().map(join_worker).collect()
    });
    let mut write = counts[0];
    let mut read_base = chunk;
    for &kept in &counts[1..] {
        out.copy_within(read_base..read_base + kept, write);
        write += kept;
        read_base += chunk;
    }
    out.truncate(write);
}

/// Runs step 4 with the verifier `opts` selects: bitmap-filtered for
/// unweighted predicates when `opts.bitmap_filter` is on (recording the
/// filter counters in `stats`), the plain exact path otherwise. `same`
/// marks a self-join, so one bitmap build serves both sides; binary joins
/// share a width (chosen from the combined mean set size) so the filter
/// always applies.
#[allow(clippy::too_many_arguments)]
fn verify_with_options(
    encoded: &[u64],
    left: &SetCollection,
    right: &SetCollection,
    same: bool,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
    stats: &mut JoinStats,
    pairs: &mut Vec<(SetId, SetId)>,
) {
    if opts.bitmap_filter && !pred.is_weighted() {
        let wps = if same {
            BitmapIndex::words_for_mean(left.avg_set_len())
        } else {
            let sets = left.len() + right.len();
            let elems = left.total_elements() + right.total_elements();
            BitmapIndex::words_for_mean(if sets == 0 {
                0.0
            } else {
                elems as f64 / sets as f64
            })
        };
        let left_bm = BitmapIndex::for_collection_width(left, wps);
        let right_bm = if same {
            None
        } else {
            Some(BitmapIndex::for_collection_width(right, wps))
        };
        let right_ref = right_bm.as_ref().unwrap_or(&left_bm);
        let verifier = BitmapVerifier::new(pred, weights, &left_bm, right_ref);
        verify_pairs_into(encoded, left, right, &verifier, opts.threads, pairs);
        stats.bitmap_pruned = verifier.bitmap_pruned();
        stats.bitmap_survivors = verifier.bitmap_survivors();
    } else {
        let verifier = ExactVerifier::new(pred, weights);
        verify_pairs_into(encoded, left, right, &verifier, opts.threads, pairs);
    }
}

/// Computes a self-SSJoin of `collection` under `pred` using `scheme`
/// (Figure 2 with `R = S`). Returns all pairs `(a, b)`, `a < b`, satisfying
/// the predicate — plus every candidate pair when `opts.verify` is off.
pub fn self_join(
    scheme: &impl SignatureScheme,
    collection: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
) -> JoinResult {
    drive(scheme, collection, None, pred, weights, opts)
}

/// Computes a binary SSJoin `R ⋈ S` under `pred` using one shared `scheme`
/// (the same hidden parameters must generate both sides' signatures —
/// Section 3.1).
pub fn join(
    scheme: &impl SignatureScheme,
    r: &SetCollection,
    s: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
) -> JoinResult {
    drive(scheme, r, Some(s), pred, weights, opts)
}

/// Figure 2 over `left` and `right`, or `left` alone for a self-join.
fn drive(
    scheme: &impl SignatureScheme,
    left: &SetCollection,
    right: Option<&SetCollection>,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
) -> JoinResult {
    let other = right.unwrap_or(left);
    let mut stats = JoinStats {
        num_sets_r: left.len(),
        num_sets_s: other.len(),
        ..Default::default()
    };

    let t0 = Instant::now();
    let postings_l = generate_postings(scheme, left, opts.threads);
    let postings_r = right.map(|r| generate_postings(scheme, r, opts.threads));
    stats.signatures_r = signature_count(&postings_l);
    stats.signatures_s = postings_r.as_deref().map_or(0, signature_count);
    stats.sig_gen_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (encoded, collisions) = sorted_run_candidates(postings_l, postings_r, opts.threads);
    stats.signature_collisions = collisions;
    stats.candidate_pairs = encoded.len() as u64;
    stats.cand_gen_secs = t1.elapsed().as_secs_f64();

    // Debug builds cross-check Theorem 1 on small inputs: an exact scheme's
    // candidates must be a superset of the true result.
    if !scheme.is_approximate() {
        match right {
            None => {
                crate::invariants::assert_self_candidates_complete(&encoded, left, pred, weights)
            }
            Some(r) => crate::invariants::assert_binary_candidates_complete(
                &encoded, left, r, pred, weights,
            ),
        }
    }

    let t2 = Instant::now();
    let mut pairs = Vec::new();
    if opts.verify {
        let same = right.is_none();
        verify_with_options(
            &encoded, left, other, same, pred, weights, opts, &mut stats, &mut pairs,
        );
    } else {
        pairs.extend(encoded.iter().map(|&p| decode_pair(p)));
    }
    stats.output_pairs = pairs.len() as u64;
    stats.false_positives = stats.candidate_pairs - stats.output_pairs;
    stats.verify_secs = t2.elapsed().as_secs_f64();

    JoinResult {
        pairs,
        stats,
        approximate: scheme.is_approximate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;
    use crate::partenum::PartEnumJaccard;
    use crate::similarity::jaccard;
    use rand::prelude::*;

    /// Identity scheme for exercising the driver independently of PartEnum.
    struct Identity;
    impl SignatureScheme for Identity {
        fn signatures_into(&self, set: &[u32], out: &mut Vec<u64>) {
            out.extend(set.iter().map(|&e| e as u64));
        }
    }

    fn naive_self(collection: &SetCollection, pred: Predicate) -> Vec<(SetId, SetId)> {
        let mut out = Vec::new();
        for a in 0..collection.len() as SetId {
            for b in a + 1..collection.len() as SetId {
                if pred.evaluate(collection.set(a), collection.set(b), None) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    fn small_random_collection(seed: u64, n: usize) -> SetCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = Vec::new();
        for _ in 0..n {
            let len = rng.gen_range(3..20);
            let s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..60u32)).collect();
            sets.push(s);
        }
        // Plant some near-duplicates so the join has output.
        for i in 0..n / 4 {
            let mut dup: Vec<u32> = sets[i].clone();
            dup.push(100 + i as u32);
            sets.push(dup);
        }
        sets.into_iter().collect()
    }

    /// The bucketing the sorted runs replaced: a hash map from signature to
    /// posting list, enumerated bucket by bucket (`right` indexed, `left`
    /// probing it for a binary join).
    fn reference_candidates(left: &[Posting], right: Option<&[Posting]>) -> (Vec<u64>, u64) {
        let mut buckets: FxHashMap<Signature, Vec<SetId>> = FxHashMap::default();
        for &(sig, id) in right.unwrap_or(left) {
            buckets.entry(sig).or_default().push(id);
        }
        let (mut pairs, mut collisions) = (Vec::new(), 0u64);
        if right.is_none() {
            for ids in buckets.values() {
                collisions += (ids.len() * ids.len().saturating_sub(1) / 2) as u64;
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        pairs.push(((a.min(b) as u64) << 32) | a.max(b) as u64);
                    }
                }
            }
        } else {
            for &(sig, a) in left {
                let ids = buckets.get(&sig).map_or(&[][..], Vec::as_slice);
                collisions += ids.len() as u64;
                pairs.extend(ids.iter().map(|&b| ((a as u64) << 32) | b as u64));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        (pairs, collisions)
    }

    #[test]
    fn sorted_runs_match_hash_bucketing() {
        let r = small_random_collection(11, 900);
        let s = small_random_collection(12, 300);
        let max_len = r.max_set_len().max(s.max_set_len());
        let scheme = PartEnumJaccard::new(0.6, max_len, 3).unwrap();
        let flat = |c: &SetCollection| generate_postings(&scheme, c, 1).concat().concat();
        let want_self = reference_candidates(&flat(&r), None);
        let want_cross = reference_candidates(&flat(&r), Some(&flat(&s)));
        assert!(want_self.1 > want_self.0.len() as u64, "buckets too short");
        assert!(!want_cross.0.is_empty());
        for threads in [1, 4] {
            let pr = generate_postings(&scheme, &r, threads);
            let ps = generate_postings(&scheme, &s, threads);
            assert_eq!(
                sorted_run_candidates(pr.clone(), None, threads),
                want_self,
                "self, threads={threads}"
            );
            assert_eq!(
                sorted_run_candidates(pr, Some(ps), threads),
                want_cross,
                "binary, threads={threads}"
            );
        }
    }

    #[test]
    fn identity_scheme_self_join_matches_naive() {
        let collection = small_random_collection(1, 60);
        let pred = Predicate::Jaccard { gamma: 0.6 };
        let result = self_join(&Identity, &collection, pred, None, JoinOptions::default());
        let mut expected = naive_self(&collection, pred);
        expected.sort_unstable();
        let mut got = result.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(result.stats.output_pairs as usize, expected.len());
        assert!(!result.approximate);
    }

    #[test]
    fn partenum_self_join_matches_naive() {
        let collection = small_random_collection(2, 60);
        for gamma in [0.6, 0.8, 0.9] {
            let pred = Predicate::Jaccard { gamma };
            let scheme = PartEnumJaccard::new(gamma, collection.max_set_len(), 5).unwrap();
            let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
            let mut expected = naive_self(&collection, pred);
            expected.sort_unstable();
            let mut got = result.pairs.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "gamma={gamma}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let collection = small_random_collection(3, 2000);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 9).unwrap();
        let seq = self_join(&scheme, &collection, pred, None, JoinOptions::sequential());
        let par = self_join(&scheme, &collection, pred, None, JoinOptions::parallel(4));
        let mut a = seq.pairs.clone();
        let mut b = par.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(seq.stats.signatures_r, par.stats.signatures_r);
        assert_eq!(
            seq.stats.signature_collisions,
            par.stats.signature_collisions
        );
        assert_eq!(seq.stats.candidate_pairs, par.stats.candidate_pairs);
    }

    #[test]
    fn binary_join_matches_naive() {
        let r = small_random_collection(4, 40);
        let s = small_random_collection(5, 40);
        let pred = Predicate::Jaccard { gamma: 0.5 };
        let max_len = r.max_set_len().max(s.max_set_len());
        let scheme = PartEnumJaccard::new(0.5, max_len, 6).unwrap();
        let result = join(&scheme, &r, &s, pred, None, JoinOptions::default());
        let mut expected = Vec::new();
        for a in 0..r.len() as SetId {
            for b in 0..s.len() as SetId {
                if pred.evaluate(r.set(a), s.set(b), None) {
                    expected.push((a, b));
                }
            }
        }
        expected.sort_unstable();
        let mut got = result.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn verify_off_returns_candidates() {
        let collection = small_random_collection(6, 30);
        let pred = Predicate::Jaccard { gamma: 0.8 };
        let scheme = PartEnumJaccard::new(0.8, collection.max_set_len(), 2).unwrap();
        let opts = JoinOptions {
            verify: false,
            ..Default::default()
        };
        let result = self_join(&scheme, &collection, pred, None, opts);
        assert_eq!(result.pairs.len() as u64, result.stats.candidate_pairs);
        assert_eq!(result.stats.false_positives, 0);
    }

    #[test]
    fn bitmap_filter_is_transparent_and_counted() {
        let collection = small_random_collection(8, 200);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 4).unwrap();
        let on = self_join(&scheme, &collection, pred, None, JoinOptions::default());
        let off = self_join(
            &scheme,
            &collection,
            pred,
            None,
            JoinOptions::default().with_bitmap_filter(false),
        );
        // Byte-identical output either way; the filter only reorders work.
        assert_eq!(on.pairs, off.pairs);
        assert_eq!(on.stats.candidate_pairs, off.stats.candidate_pairs);
        // Every candidate was either pruned by the bound or exact-merged.
        assert_eq!(
            on.stats.bitmap_pruned + on.stats.bitmap_survivors,
            on.stats.candidate_pairs
        );
        assert!(on.stats.bitmap_pruned > 0, "workload should prune");
        assert_eq!(off.stats.bitmap_pruned, 0);
        assert_eq!(off.stats.bitmap_survivors, 0);
    }

    #[test]
    fn binary_join_bitmap_filter_is_transparent() {
        let r = small_random_collection(9, 80);
        let s = small_random_collection(10, 80);
        let pred = Predicate::Jaccard { gamma: 0.5 };
        let max_len = r.max_set_len().max(s.max_set_len());
        let scheme = PartEnumJaccard::new(0.5, max_len, 6).unwrap();
        let on = join(&scheme, &r, &s, pred, None, JoinOptions::default());
        let off = join(
            &scheme,
            &r,
            &s,
            pred,
            None,
            JoinOptions::default().with_bitmap_filter(false),
        );
        assert_eq!(on.pairs, off.pairs);
        assert_eq!(
            on.stats.bitmap_pruned + on.stats.bitmap_survivors,
            on.stats.candidate_pairs
        );
    }

    #[test]
    fn stats_are_consistent() {
        let collection = small_random_collection(7, 50);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 3).unwrap();
        let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
        let s = &result.stats;
        assert_eq!(s.output_pairs + s.false_positives, s.candidate_pairs);
        // Collisions upper-bound distinct candidates.
        assert!(s.signature_collisions >= s.candidate_pairs);
        assert!(s.f2() >= 2 * s.signatures_r);
        // Every reported output pair truly satisfies the predicate.
        for &(a, b) in &result.pairs {
            assert!(jaccard(collection.set(a), collection.set(b)) + 1e-9 >= 0.7);
        }
    }

    #[test]
    fn empty_collection_joins() {
        let empty = SetCollection::new();
        let pred = Predicate::Jaccard { gamma: 0.9 };
        let scheme = PartEnumJaccard::new(0.9, 1, 0).unwrap();
        let result = self_join(&scheme, &empty, pred, None, JoinOptions::default());
        assert!(result.pairs.is_empty());
        assert_eq!(result.stats.candidate_pairs, 0);
    }
}
