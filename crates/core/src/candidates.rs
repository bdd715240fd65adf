//! Sort-based candidate enumeration (Figure 2, step 3).
//!
//! One posting pass serves the in-memory driver ([`crate::join`]) and the
//! out-of-core executor (`ssj-extern`, once per spill partition): sorting
//! the `(signature, set id)` postings lays every signature bucket out as
//! one contiguous run with ascending ids, and the runs are scanned to emit
//! each colliding pair packed as `(a << 32) | b`. The scans allocate
//! nothing beyond the caller's pair buffer, so a warmed pass after an
//! in-place sort is allocation-free (the extern alloc witness pins this).

use crate::set::SetId;
use crate::signature::Signature;

/// One `(signature, set id)` posting. Sorting a slice of them groups each
/// signature's bucket into a contiguous run with ascending ids.
pub type Posting = (Signature, SetId);

/// Pair count from which a full pair buffer is deduplicated before it grows.
const DEDUP_AT: usize = 1 << 20;

/// Appends `pair`, first sorting and deduplicating `pairs` in place when it
/// is full (and past [`DEDUP_AT`]), so the buffer only grows once distinct
/// pairs fill it: peak memory stays near 2× the *distinct* candidates
/// rather than the raw collision count (the two differ by the average
/// signatures shared per pair). A compaction that frees less than half the
/// buffer doubles it, so compactions stay amortized.
#[inline]
fn push_pair(pairs: &mut Vec<u64>, pair: u64) {
    if pairs.len() == pairs.capacity() && pairs.len() >= DEDUP_AT {
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.len() > pairs.capacity() / 2 {
            pairs.reserve(pairs.capacity());
        }
    }
    pairs.push(pair);
}

/// The distinct pairs of all `parts`, ascending.
pub fn distinct_pairs(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut out = Vec::new();
    bucket_sort(parts, |&pair| pair, &mut out);
    out.dedup();
    out
}

/// Writes the items of `parts`, concatenated, into `out` (cleared first)
/// in ascending order — in two passes when `key`, which must be monotone
/// in that order, spreads the items evenly: scatter by the key's top bits
/// (about eight items per bucket), then sort each small bucket.
/// Signatures are hashes and packed pairs grow with their first id, so
/// both spread.
pub fn bucket_sort<T: Copy + Ord + Default>(
    parts: &[impl AsRef<[T]>],
    key: impl Fn(&T) -> u64,
    out: &mut Vec<T>,
) {
    let items = || parts.iter().flat_map(AsRef::as_ref);
    let len = items().count();
    let bits = len.checked_ilog2().unwrap_or(0).saturating_sub(2).min(16);
    let top = u64::BITS - items().map(&key).max().unwrap_or(0).leading_zeros();
    let bucket = |t: &T| key(t).checked_shr(top.saturating_sub(bits)).unwrap_or(0) as usize;
    let mut starts = vec![0usize; (1 << bits) + 1];
    for t in items() {
        starts[bucket(t) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    out.clear();
    out.resize(len, T::default());
    for t in items() {
        let b = bucket(t);
        out[next[b]] = *t;
        next[b] += 1;
    }
    for w in starts.windows(2) {
        out[w[0]..w[1]].sort_unstable();
    }
}

/// Self-join enumeration over sorted postings: appends every pair `a < b`
/// of ids sharing a signature to `pairs`, packed `(a << 32) | b`. Postings must be distinct
/// (signatures are deduplicated per set), so ids within a run strictly
/// ascend. Returns the collision count Σ c·(c−1)/2 over runs of length c.
pub fn self_run_pairs(postings: &[Posting], pairs: &mut Vec<u64>) -> u64 {
    let mut collisions = 0u64;
    for run in postings.chunk_by(|x, y| x.0 == y.0) {
        let c = run.len() as u64;
        if c < 2 {
            continue;
        }
        collisions += c * (c - 1) / 2;
        for (i, &(_, a)) in run.iter().enumerate() {
            let hi = u64::from(a) << 32;
            for &(_, b) in &run[i + 1..] {
                push_pair(pairs, hi | u64::from(b));
            }
        }
    }
    collisions
}

/// Binary-join enumeration over sorted postings: merges the two sides'
/// runs, appending every `(r, s)` pair sharing a signature to `pairs`.
/// Returns the collision count Σ |run_r|·|run_s| over shared signatures.
pub fn cross_run_pairs(r: &[Posting], s: &[Posting], pairs: &mut Vec<u64>) -> u64 {
    let mut collisions = 0u64;
    let mut runs_s = s.chunk_by(|x, y| x.0 == y.0).peekable();
    for run_r in r.chunk_by(|x, y| x.0 == y.0) {
        let sig = run_r[0].0;
        while runs_s.next_if(|run| run[0].0 < sig).is_some() {}
        let Some(run_s) = runs_s.next_if(|run| run[0].0 == sig) else {
            continue;
        };
        collisions += run_r.len() as u64 * run_s.len() as u64;
        for &(_, a) in run_r {
            let hi = u64::from(a) << 32;
            for &(_, b) in run_s {
                push_pair(pairs, hi | u64::from(b));
            }
        }
    }
    collisions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_sort_matches_sort_unstable() {
        let mut state = 7u64;
        for n in [0usize, 1, 9, 100, 5_000] {
            let mut p: Vec<Posting> = (0..n)
                .map(|i| {
                    state = crate::hash::mix64(state);
                    // Few distinct signatures, some tiny: long runs, and
                    // buckets the top bits do not split.
                    (
                        if i % 3 == 0 {
                            state % 5
                        } else {
                            (state % 97) << 57
                        },
                        i as u32,
                    )
                })
                .collect();
            let mut got = Vec::new();
            bucket_sort(&[&p[..n / 2], &p[n / 2..]], |q| q.0, &mut got);
            p.sort_unstable();
            assert_eq!(got, p, "n={n}");
        }
    }

    #[test]
    fn amortized_dedup_keeps_every_distinct_pair() {
        // Two ids sharing many signatures: far more raw pairs than the
        // dedup threshold, one distinct pair.
        let mut p: Vec<Posting> = (0..(DEDUP_AT as u64 + 10))
            .flat_map(|sig| [(sig, 1), (sig, 2)])
            .collect();
        let mut pairs = Vec::new();
        p.sort_unstable();
        let c = self_run_pairs(&p, &mut pairs);
        assert_eq!(c, DEDUP_AT as u64 + 10);
        assert!(pairs.len() < DEDUP_AT, "dedup never compacted");
        assert_eq!(distinct_pairs(&[pairs]), vec![(1u64 << 32) | 2]);
    }

    #[test]
    fn cross_runs_skip_one_sided_signatures() {
        let r: Vec<Posting> = vec![(1, 0), (5, 0), (5, 1), (9, 1)];
        let s: Vec<Posting> = vec![(2, 7), (5, 3), (9, 4), (10, 4)];
        let mut pairs = Vec::new();
        assert_eq!(cross_run_pairs(&r, &s, &mut pairs), 3);
        // Signature 5: {0, 1} × {3}; signature 9: {1} × {4}.
        assert_eq!(
            distinct_pairs(&[pairs]),
            vec![3, (1u64 << 32) | 3, (1u64 << 32) | 4]
        );
    }
}
