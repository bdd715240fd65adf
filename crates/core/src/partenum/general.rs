//! PartEnum for the general predicate class of Section 6.
//!
//! Section 6's recipe: a predicate is PartEnum-evaluable if (1) every set
//! size admits lower/upper bounds on joinable partner sizes, and (2) every
//! joining pair of given sizes admits a hamming-distance bound. Condition 1
//! drives the same interval decomposition as jaccard (Section 5); condition
//! 2 supplies each interval's hamming threshold.
//!
//! Two structural cases arise:
//!
//! * predicates with a *global* hamming bound (`Hamming {k}`) need no size
//!   decomposition at all — one PartEnum instance covers every size;
//! * predicates with a *multiplicative* size bound (`Jaccard`,
//!   `MaxFraction`: partner size ≤ `ℓ/γ`) get the Figure 6 interval
//!   construction, with each instance's threshold taken from the worst
//!   hamming bound over the pair sizes it can see.

use super::hamming::PartEnumHamming;
use super::intervals::SizeIntervals;
use super::optimize::{cheapest, even_sample, route_by_interval};
use super::params::PartEnumParams;
use crate::error::{Result, SsjError};
use crate::hash::SigBuilder;
use crate::predicate::Predicate;
use crate::set::{ElementId, SetCollection};
use crate::signature::{Signature, SignatureScheme};

/// About how many sets [`GeneralPartEnum::optimized`] samples.
const OPTIMIZER_SAMPLE: usize = 2_000;
/// Cap on signatures per set an optimized instance may spend (at least
/// `k + 1`, so every threshold has a candidate).
const OPTIMIZER_MAX_SIGS: usize = 256;

#[derive(Debug, Clone)]
enum Structure {
    /// One instance covers all sizes (global hamming bound).
    Single(PartEnumHamming),
    /// Size-interval decomposition (multiplicative size bound).
    Intervals {
        intervals: SizeIntervals,
        /// `instances[i]` is instance `i+1` (1-based).
        instances: Vec<PartEnumHamming>,
    },
}

/// PartEnum generalized to any [`Predicate`] satisfying Section 6's two
/// conditions (currently `Jaccard`, `Hamming`, and `MaxFraction`).
///
/// For interval-structured predicates, construction *verifies* the routing
/// invariant rather than assuming it: for every size `ℓ` up to
/// `max_set_size`, the largest joinable partner size must fall within the
/// next interval, so that the Figure 6 "emit instances i and i+1" routing is
/// exhaustive. Predicates violating the conditions (e.g. plain `Overlap`,
/// which has no size bound at all) are rejected with
/// [`SsjError::UnsupportedPredicate`].
///
/// ```
/// use ssj_core::partenum::GeneralPartEnum;
/// use ssj_core::predicate::Predicate;
///
/// // Section 6's example predicate is supported...
/// assert!(GeneralPartEnum::new(Predicate::MaxFraction { gamma: 0.9 }, 100, 0).is_ok());
/// // ...plain intersection thresholds are not (no size/hamming bounds).
/// assert!(GeneralPartEnum::new(Predicate::Overlap { t: 20 }, 100, 0).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct GeneralPartEnum {
    pred: Predicate,
    structure: Structure,
}

impl GeneralPartEnum {
    /// Builds the scheme, or rejects the predicate.
    pub fn new(pred: Predicate, max_set_size: usize, seed: u64) -> Result<Self> {
        Self::with_params(pred, max_set_size, seed, PartEnumParams::default_for)
    }

    /// Builds with a custom `k → (n1, n2)` parameter choice.
    pub fn with_params(
        pred: Predicate,
        max_set_size: usize,
        seed: u64,
        params: impl Fn(usize) -> PartEnumParams,
    ) -> Result<Self> {
        if !pred.supports_partenum() {
            return Err(SsjError::UnsupportedPredicate(format!(
                "{pred:?} lacks size or hamming bounds (Section 6 conditions)"
            )));
        }
        if let Predicate::Hamming { k } = pred {
            let p = params(k);
            p.validate(k)?;
            let instance = PartEnumHamming::new(k, p, seed)?;
            return Ok(Self {
                pred,
                structure: Structure::Single(instance),
            });
        }

        // Multiplicative case. Effective size ratio: how much larger a
        // partner may be, probed at a reference size (uniform for the
        // supported predicates).
        let probe = max_set_size.max(16);
        let Some((_, hi)) = pred.size_bounds(probe) else {
            // supports_partenum() implies size bounds exist for every size.
            return Err(SsjError::UnsupportedPredicate(format!(
                "{pred:?} has no size bound at probe size {probe}"
            )));
        };
        let ratio = (hi as f64 / probe as f64).max(1.0);
        let gamma_eff = (1.0 / ratio).clamp(1e-6, 1.0);
        let intervals = SizeIntervals::new(gamma_eff, max_set_size.max(1) + 1);

        // Verify the i/i+1 routing is exhaustive for this predicate.
        for len in 1..=max_set_size {
            let i = intervals.interval_of(len)?;
            if let Some((_, hi)) = pred.size_bounds(len) {
                let hi = hi.min(max_set_size);
                if hi >= 1 {
                    let j = intervals.interval_of(hi)?;
                    if j > i + 1 {
                        return Err(SsjError::UnsupportedPredicate(format!(
                            "partner size {hi} for size {len} escapes interval {i}+1 (lands in {j})"
                        )));
                    }
                }
            }
        }

        // Per-instance hamming threshold: the worst hamming bound over pair
        // sizes the instance can see (both in [l_{i−1}, r_i]; the supported
        // predicates' bounds are monotone, so corners suffice — we still take
        // the max over three corners for safety).
        let mut instances = Vec::with_capacity(intervals.count());
        for i in 1..=intervals.count() {
            let (l, r) = intervals.interval(i);
            let lo = if i > 1 {
                intervals.interval(i - 1).0
            } else {
                l
            };
            let k = [(lo, r), (r, r), (lo, lo)]
                .iter()
                .filter_map(|&(a, b)| pred.hamming_bound(a, b))
                .max()
                .ok_or_else(|| SsjError::UnsupportedPredicate("no hamming bound".into()))?;
            let p = params(k);
            p.validate(k)?;
            instances.push(PartEnumHamming::with_tag(
                k,
                p,
                seed.wrapping_add(i as u64).wrapping_mul(0x85eb_ca6b),
                i as u64,
            )?);
        }
        Ok(Self {
            pred,
            structure: Structure::Intervals {
                intervals,
                instances,
            },
        })
    }

    /// Builds with every instance's `(n1, n2)` chosen by the Section 3.2
    /// cost model (Section 8, Table 1): [`super::estimate_cost`] of each
    /// candidate on the evenly sampled sets the instance would sign,
    /// scaled to the full input; the cheapest wins, never a fallback to
    /// [`PartEnumParams::default_for`]. `collections` are the join's
    /// inputs (one for a self-join).
    pub fn optimized(pred: Predicate, collections: &[&SetCollection], seed: u64) -> Result<Self> {
        let max_len = collections.iter().map(|c| c.max_set_len()).max();
        let mut scheme = Self::new(pred, max_len.unwrap_or(0).max(1), seed)?;
        let (sample, scale) = even_sample(collections, OPTIMIZER_SAMPLE);
        let (instances, routed) = match &mut scheme.structure {
            Structure::Single(instance) => (std::slice::from_mut(instance), vec![sample]),
            Structure::Intervals {
                intervals,
                instances,
            } => (
                instances.as_mut_slice(),
                route_by_interval(intervals, &sample),
            ),
        };
        for (instance, sets) in instances.iter_mut().zip(&routed) {
            let k = instance.k();
            let max_sigs = OPTIMIZER_MAX_SIGS.max(k + 1);
            let params = cheapest(k, sets, scale, max_sigs, |p| instance.reparameterized(p))
                .ok_or_else(|| {
                    SsjError::InvalidParams(format!("no (n1, n2) builds for k = {k}"))
                })?;
            *instance = instance.reparameterized(params)?;
        }
        Ok(scheme)
    }

    /// The predicate this scheme evaluates.
    pub fn predicate(&self) -> Predicate {
        self.pred
    }
}

impl SignatureScheme for GeneralPartEnum {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        self.signatures_scratch(set, &mut crate::signature::SigScratch::default(), out);
    }

    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut crate::signature::SigScratch,
        out: &mut Vec<Signature>,
    ) {
        match &self.structure {
            Structure::Single(instance) => instance.signatures_scratch(set, scratch, out),
            Structure::Intervals {
                intervals,
                instances,
            } => {
                if set.is_empty() {
                    // Under a multiplicative predicate an empty set joins
                    // only other empty sets: a constant sentinel signature
                    // (domain-separated from instance tags) is exact.
                    let mut sig = SigBuilder::new(u64::MAX);
                    sig.push(0);
                    out.push(sig.finish());
                    return;
                }
                // Uncovered sizes emit nothing (see PartEnumJaccard): the
                // fallible index entry points surface the error instead.
                let Ok(i) = intervals.interval_of(set.len()) else {
                    return;
                };
                if let Some(pe) = instances.get(i - 1) {
                    pe.signatures_scratch(set, scratch, out);
                }
                if let Some(pe) = instances.get(i) {
                    pe.signatures_scratch(set, scratch, out);
                }
            }
        }
    }

    fn max_signable_len(&self) -> Option<usize> {
        match &self.structure {
            // The single-instance hamming structure signs any size.
            Structure::Single(_) => None,
            Structure::Intervals { intervals, .. } => Some(intervals.max_size()),
        }
    }

    fn name(&self) -> &'static str {
        "PEN-GEN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::floor_tol;
    use rand::prelude::*;

    fn share_sig(scheme: &GeneralPartEnum, a: &[u32], b: &[u32]) -> bool {
        let sa = scheme.signatures(a);
        let sb = scheme.signatures(b);
        sa.iter().any(|s| sb.contains(s))
    }

    #[test]
    fn rejects_unbounded_predicates() {
        let err = GeneralPartEnum::new(Predicate::Overlap { t: 20 }, 100, 0);
        assert!(matches!(err, Err(SsjError::UnsupportedPredicate(_))));
        let err = GeneralPartEnum::new(Predicate::WeightedOverlap { t: 2.0 }, 100, 0);
        assert!(err.is_err());
    }

    #[test]
    fn maxfraction_correctness_randomized() {
        // Section 6's example predicate: |r∩s| ≥ γ·max(|r|,|s|).
        let gamma = 0.9;
        let pred = Predicate::MaxFraction { gamma };
        let scheme = GeneralPartEnum::new(pred, 150, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..100 {
            let m = rng.gen_range(30..100usize);
            let shared: Vec<u32> = (0..m as u32).collect();
            // extras on one side, keeping |r∩s| = m ≥ γ·max. Tolerant
            // floor: raw `.floor() as usize` under-counts when the exact
            // value sits a ulp below an integer, so the test would never
            // construct the maximal legal pair.
            let max_extra = floor_tol((m as f64 / gamma) - m as f64);
            let ea = rng.gen_range(0..=max_extra);
            let mut a = shared.clone();
            a.extend((0..ea as u32).map(|x| 10_000 + x));
            let b = shared.clone();
            a.sort_unstable();
            assert!(
                pred.evaluate(&a, &b, None),
                "trial {trial} construction broke"
            );
            assert!(share_sig(&scheme, &a, &b), "trial {trial}: missed pair");
        }
    }

    #[test]
    fn jaccard_via_general_matches_dedicated_behavior() {
        let pred = Predicate::Jaccard { gamma: 0.85 };
        let scheme = GeneralPartEnum::new(pred, 80, 5).unwrap();
        let a: Vec<u32> = (0..40).collect();
        let mut b: Vec<u32> = (0..38).collect();
        b.extend([500, 501]); // Js = 38/42 ≈ 0.905 ≥ 0.85
        assert!(pred.evaluate(&a, &b, None));
        assert!(share_sig(&scheme, &a, &b));
    }

    #[test]
    fn hamming_uses_single_instance_and_handles_empty_sets() {
        let pred = Predicate::Hamming { k: 3 };
        let scheme = GeneralPartEnum::new(pred, 60, 8).unwrap();
        let a: Vec<u32> = (0..30).collect();
        let mut b = a.clone();
        b.retain(|&x| x != 7); // Hd = 1
        assert!(share_sig(&scheme, &a, &b));
        // Hd(∅, {1,2}) = 2 ≤ 3: the pair must share a signature — this is
        // why the hamming predicate cannot use the interval sentinel.
        assert!(share_sig(&scheme, &[], &[1, 2]));
        assert!(share_sig(&scheme, &[], &[]));
    }

    #[test]
    fn dissimilar_pairs_usually_filtered() {
        let pred = Predicate::MaxFraction { gamma: 0.9 };
        let scheme = GeneralPartEnum::new(pred, 100, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..60).map(|_| rng.gen_range(0..100_000)).collect();
            a.sort_unstable();
            a.dedup();
            let mut b: Vec<u32> = (0..60).map(|_| rng.gen_range(0..100_000)).collect();
            b.sort_unstable();
            b.dedup();
            if share_sig(&scheme, &a, &b) {
                hits += 1;
            }
        }
        assert!(hits < 20, "poor filtering: {hits}/200 far pairs collided");
    }

    #[test]
    fn optimized_picks_the_cheapest_setting_for_every_instance() {
        use crate::partenum::optimize::estimate_cost;
        // Sets drawn from overlapping windows of a small vocabulary, so
        // buckets are long and the cost model has collisions to trade
        // against signatures.
        let mut rng = StdRng::seed_from_u64(21);
        let sets: Vec<Vec<u32>> = (0..500)
            .map(|_| {
                let len = rng.gen_range(4..24usize);
                let base = rng.gen_range(0..200u32);
                (0..len).map(|_| base + rng.gen_range(0..40u32)).collect()
            })
            .collect();
        let collection: SetCollection = sets.into_iter().collect();
        let mut default_beaten = 0;
        for pred in [
            Predicate::Jaccard { gamma: 0.8 },
            Predicate::Dice { gamma: 0.85 },
            Predicate::Cosine { gamma: 0.85 },
            Predicate::MaxFraction { gamma: 0.8 },
            Predicate::Hamming { k: 4 },
        ] {
            let scheme = GeneralPartEnum::optimized(pred, &[&collection], 7).unwrap();
            let (sample, scale) = even_sample(&[&collection], OPTIMIZER_SAMPLE);
            let (instances, routed) = match &scheme.structure {
                Structure::Single(instance) => (std::slice::from_ref(instance), vec![sample]),
                Structure::Intervals {
                    intervals,
                    instances,
                } => (instances.as_slice(), route_by_interval(intervals, &sample)),
            };
            for (slot, (instance, sets)) in instances.iter().zip(&routed).enumerate() {
                let k = instance.k();
                let cost = |p| estimate_cost(&instance.reparameterized(p).unwrap(), sets, scale);
                let best = PartEnumParams::candidates(k, OPTIMIZER_MAX_SIGS.max(k + 1))
                    .into_iter()
                    .map(cost)
                    .fold(f64::INFINITY, f64::min);
                let chosen = instance.params();
                assert_eq!(
                    cost(chosen),
                    best,
                    "{pred:?} instance {slot}: {chosen:?} not cheapest"
                );
                // No silent fallback: where the default costs more, it is
                // never what the instance got.
                let default = PartEnumParams::default_for(k);
                if cost(default) > best {
                    assert_ne!(chosen, default, "{pred:?} instance {slot} fell back");
                    default_beaten += 1;
                }
            }
        }
        assert!(
            default_beaten > 0,
            "workload never separated optimum from default"
        );
    }

    #[test]
    fn empty_sets_share_sentinel_under_jaccard() {
        let scheme = GeneralPartEnum::new(Predicate::Jaccard { gamma: 0.8 }, 20, 0).unwrap();
        assert!(share_sig(&scheme, &[], &[]));
        assert!(!share_sig(&scheme, &[], &[1, 2]));
    }
}
