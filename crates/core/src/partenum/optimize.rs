//! Data-driven choice of PartEnum's `(n1, n2)` parameters.
//!
//! Section 8 / Table 1: no single parameter setting is good for all SSJoin
//! instances — the optimal number of signatures per set *grows* with input
//! size (that is what makes PartEnum scale near-linearly instead of
//! quadratically). The paper proposes picking parameters by estimating the
//! intermediate-result size (the F2-style expression of Section 3.2) for
//! each setting; this module implements that estimator on a sample of the
//! input.

use super::hamming::PartEnumHamming;
use super::intervals::SizeIntervals;
use super::params::PartEnumParams;
use crate::error::Result;
use crate::hash::FxHashMap;
use crate::set::{ElementId, SetCollection};
use crate::signature::{SigScratch, SignatureScheme};

/// Estimated cost of running a signature scheme over a full input of
/// `scale ×` the sample, using the Section 3.2 expression:
/// `Σ|Sign(r)| + Σ|Sign(s)| + Σ|Sign(r) ∩ Sign(s)|`.
///
/// Signatures are counted per set as the join driver counts them
/// ([`SignatureScheme::signature_set`]), so at `scale = 1` the estimate
/// equals the driver's `2·signatures + collisions` on the same sets.
/// Signature counts scale linearly with input size; signature
/// *collisions* scale quadratically
/// (each bucket of colliding signatures grows linearly, and pairs within
/// it quadratically) — exactly the effect Table 1 compensates for.
pub fn estimate_cost(scheme: &impl SignatureScheme, sample: &[&[ElementId]], scale: f64) -> f64 {
    let mut sigs = Vec::new();
    let mut buf = Vec::new();
    let mut scratch = SigScratch::default();
    for set in sample {
        scheme.signature_set(set, &mut scratch, &mut buf);
        sigs.extend_from_slice(&buf);
    }
    sigs.sort_unstable();
    let runs = sigs.chunk_by(|a, b| a == b);
    let collisions = runs
        .map(|run| run.len() * (run.len() - 1) / 2)
        .sum::<usize>() as f64;
    2.0 * sigs.len() as f64 * scale + collisions * scale * scale
}

/// The candidate `(n1, n2)` for threshold `k` (at most `max_sigs`
/// signatures per set) whose instance, as `build` constructs it, has the
/// lowest [`estimate_cost`] on `sample`; ties keep the setting with fewer
/// signatures. `None` only when no candidate builds.
pub(crate) fn cheapest(
    k: usize,
    sample: &[&[ElementId]],
    scale: f64,
    max_sigs: usize,
    build: impl Fn(PartEnumParams) -> Result<PartEnumHamming>,
) -> Option<PartEnumParams> {
    let mut best: Option<(PartEnumParams, f64)> = None;
    for params in PartEnumParams::candidates(k, max_sigs) {
        // Candidates ascend in signatures per set, and an instance gives
        // every set exactly that many (distinct up to 64-bit hash
        // collisions), so once the signature term alone exceeds the best
        // cost no later candidate can win.
        let sigs = params.signatures_per_vector(k).unwrap_or(usize::MAX) as f64;
        if best.is_some_and(|(_, best_cost)| 2.0 * sigs * sample.len() as f64 * scale > best_cost) {
            break;
        }
        let Ok(scheme) = build(params) else {
            continue;
        };
        let cost = estimate_cost(&scheme, sample, scale);
        if best.is_none_or(|(_, best_cost)| cost < best_cost) {
            best = Some((params, cost));
        }
    }
    best.map(|(params, _)| params)
}

/// An evenly spaced sample of about `cap` sets across `collections`, and
/// the scale (input sets per sampled set) that projects sample costs onto
/// the whole input.
pub(crate) fn even_sample<'a>(
    collections: &[&'a SetCollection],
    cap: usize,
) -> (Vec<&'a [ElementId]>, f64) {
    let total: usize = collections.iter().map(|c| c.len()).sum();
    let step = (total / cap.max(1)).max(1);
    let sample = collections
        .iter()
        .flat_map(|c| {
            (0..c.len())
                .step_by(step)
                .map(|id| c.set(crate::cast::set_id(id)))
        })
        .collect();
    (sample, step as f64)
}

/// The sets of `sample` each interval's instance signs, by 0-based
/// instance: Figure 6 routes a set in interval `j` to instances `j` and
/// `j + 1` (1-based); the empty set reaches none.
pub(crate) fn route_by_interval<'a>(
    intervals: &SizeIntervals,
    sample: &[&'a [ElementId]],
) -> Vec<Vec<&'a [ElementId]>> {
    let mut routed = vec![Vec::new(); intervals.count()];
    for &set in sample {
        if let Ok(j) = intervals.interval_of(set.len()) {
            for sets in routed.iter_mut().skip(j - 1).take(2) {
                sets.push(set);
            }
        }
    }
    routed
}

/// Picks the `(n1, n2)` minimizing estimated cost for a *hamming* SSJoin
/// with threshold `k` over an input of `total_inputs` sets, using `sample`
/// as a representative subset. `max_sigs` caps signatures per set.
pub fn optimize_hamming(
    k: usize,
    sample: &[&[ElementId]],
    total_inputs: usize,
    max_sigs: usize,
    seed: u64,
) -> PartEnumParams {
    let scale = total_inputs as f64 / sample.len().max(1) as f64;
    cheapest(k, sample, scale, max_sigs, |params| {
        PartEnumHamming::new(k, params, seed)
    })
    .unwrap_or_else(|| PartEnumParams::default_for(k))
}

/// Per-threshold parameter optimization for the dedicated
/// [`super::jaccard::PartEnumJaccard`]: samples the collection, routes
/// sample sets to their size intervals, optimizes the first instance of
/// each hamming threshold on the sets it will see, and returns a
/// `k → (n1, n2)` function for
/// [`super::jaccard::PartEnumJaccard::with_params`]. Thresholds no sampled
/// set reaches keep [`PartEnumParams::default_for`];
/// [`super::GeneralPartEnum::optimized`] instead costs every instance.
pub fn optimize_jaccard(
    gamma: f64,
    collection: &SetCollection,
    max_sigs: usize,
    sample_cap: usize,
    seed: u64,
) -> impl Fn(usize) -> PartEnumParams {
    let intervals = SizeIntervals::new(gamma, collection.max_set_len().max(1) + 1);
    let (sample, scale_base) = even_sample(&[collection], sample_cap);
    let mut by_k: FxHashMap<usize, PartEnumParams> = FxHashMap::default();
    for (i, sets) in route_by_interval(&intervals, &sample).iter().enumerate() {
        if sets.is_empty() {
            continue;
        }
        let k = intervals.hamming_threshold(i + 1);
        let total = (sets.len() as f64 * scale_base) as usize;
        by_k.entry(k)
            .or_insert_with(|| optimize_hamming(k, sets, total, max_sigs, seed));
    }
    move |k: usize| {
        by_k.get(&k)
            .copied()
            .unwrap_or_else(|| PartEnumParams::default_for(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn uniform_sets(n: usize, len: usize, domain: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut s: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..domain)).collect();
                s.sort_unstable();
                s.dedup();
                s.truncate(len);
                s
            })
            .collect()
    }

    #[test]
    fn estimate_cost_counts_sigs_and_collisions() {
        struct Const;
        impl SignatureScheme for Const {
            fn signatures_into(&self, _set: &[u32], out: &mut Vec<u64>) {
                out.push(42);
            }
        }
        let sets = [vec![1u32], vec![2], vec![3]];
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        // 3 signatures, all colliding: C(3,2)=3 pairs.
        let cost = estimate_cost(&Const, &refs, 1.0);
        assert!((cost - (2.0 * 3.0 + 3.0)).abs() < 1e-9);
        // Scale 2: sigs double, collisions quadruple.
        let cost2 = estimate_cost(&Const, &refs, 2.0);
        assert!((cost2 - (2.0 * 6.0 + 12.0)).abs() < 1e-9);
    }

    #[test]
    fn estimate_matches_driver_counts_at_unit_scale() {
        use crate::join::{self_join, JoinOptions};
        use crate::partenum::PartEnumJaccard;
        use crate::predicate::Predicate;
        // Folding elements mod 7 emits duplicate signatures within a set;
        // the driver counts each once per set, so the estimate must too.
        struct Folded;
        impl SignatureScheme for Folded {
            fn signatures_into(&self, set: &[u32], out: &mut Vec<u64>) {
                out.extend(set.iter().map(|&e| u64::from(e % 7)));
            }
        }
        let sets = uniform_sets(80, 12, 300, 9);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let collection: SetCollection = sets.iter().cloned().collect();
        let gamma = 0.7;
        let pred = Predicate::Jaccard { gamma };
        let partenum = PartEnumJaccard::new(gamma, collection.max_set_len(), 3).unwrap();
        let check = |scheme: &dyn SignatureScheme| {
            let stats = self_join(&scheme, &collection, pred, None, JoinOptions::default()).stats;
            let driver = 2.0 * stats.signatures_r as f64 + stats.signature_collisions as f64;
            assert_eq!(
                estimate_cost(&scheme, &refs, 1.0),
                driver,
                "{}",
                scheme.name()
            );
        };
        check(&Folded);
        check(&partenum);
    }

    #[test]
    fn optimizer_returns_valid_params() {
        let sets = uniform_sets(300, 20, 5_000, 1);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        for k in [2, 5, 9] {
            let p = optimize_hamming(k, &refs, 300, 128, 7);
            p.validate(k).unwrap();
        }
    }

    #[test]
    fn bigger_inputs_prefer_more_signatures() {
        // The Table 1 trend: as the (projected) input grows, the optimizer
        // shifts toward settings with more signatures per set (better
        // filtering) because collisions scale quadratically.
        let sets = uniform_sets(400, 50, 10_000, 2);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let k = 11;
        let small = optimize_hamming(k, &refs, 1_000, 512, 3);
        let large = optimize_hamming(k, &refs, 1_000_000, 512, 3);
        let small_sigs = small.signatures_per_vector(k).expect("finite cost");
        let large_sigs = large.signatures_per_vector(k).expect("finite cost");
        assert!(
            large_sigs >= small_sigs,
            "small→{small:?} ({small_sigs} sigs), large→{large:?} ({large_sigs} sigs)"
        );
    }

    #[test]
    fn jaccard_optimizer_produces_usable_fn() {
        use crate::partenum::jaccard::PartEnumJaccard;
        let sets = uniform_sets(200, 25, 2_000, 4);
        let collection: SetCollection = sets.into_iter().collect();
        let f = optimize_jaccard(0.85, &collection, 256, 100, 5);
        // Must be valid for every instance threshold the scheme will build.
        let scheme = PartEnumJaccard::with_params(0.85, collection.max_set_len(), 5, &f);
        assert!(scheme.is_ok());
    }
}
