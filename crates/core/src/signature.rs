//! The signature-scheme abstraction (Section 3, Figure 2).
//!
//! A signature-based SSJoin algorithm is fully determined by its *signature
//! scheme*: a function from an input set to a small set of signatures such
//! that any two sets satisfying the join predicate share at least one
//! signature (the correctness requirement of Section 3.1). Candidate-pair
//! generation and post-filtering (the join driver in [`crate::join`]) are
//! shared by every scheme, exactly as the paper argues the engineering
//! details are "orthogonal to the high-level outline".

use crate::hash::FxHashSet;
use crate::set::ElementId;

/// A 64-bit signature hash. The paper hashes signatures to small integers
/// (Section 4.2); hash collisions only add false-positive candidates, never
/// lose output pairs, so exactness is preserved.
pub type Signature = u64;

/// Reusable buffers for a scheme's *internal* signature-generation
/// temporaries (DESIGN.md §5g).
///
/// `signatures_into`'s `out` parameter already lets callers reuse the
/// output buffer, but the PartEnum family and WtEnum also need working
/// storage — widened items, partition assignments, weighted items, suffix
/// sums, a dedup set. Signature generation runs once per set inside the
/// join driver's loop and once per request on the serve path, so those
/// temporaries dominate steady-state allocation if rebuilt per call.
/// Callers on hot paths hold one `SigScratch` per worker and thread it
/// through [`SignatureScheme::signatures_scratch`]; construction is
/// allocation-free (buffers grow on first use and are then reused).
///
/// The fields are deliberately scheme-agnostic and public to schemes in
/// this crate only; external schemes that need no scratch simply ignore
/// it via the default [`SignatureScheme::signatures_scratch`].
#[derive(Debug, Default)]
pub struct SigScratch {
    /// Widened / replicated 64-bit items (hamming + replicated PartEnum).
    pub(crate) items: Vec<u64>,
    /// Partition assignments `(first level, item, second level)`, sorted to
    /// group items per first-level partition (hamming PartEnum).
    pub(crate) assignments: Vec<(u32, u64, u32)>,
    /// `(weight, element)` items, heaviest first (WtEnum).
    pub(crate) weighted: Vec<(f64, ElementId)>,
    /// Suffix weight sums over `weighted` (WtEnum).
    pub(crate) suffix: Vec<f64>,
    /// Signature dedup set (WtEnum's subset enumeration).
    pub(crate) seen: FxHashSet<Signature>,
}

/// A signature scheme: `Sign(·)` of Figure 2.
///
/// Implementations carry their "hidden parameters" (Section 3.1) — the join
/// threshold, collection statistics like element frequencies, and random
/// seeds — fixed at construction time so that the *same* parameters generate
/// the signatures of every input set.
///
/// Schemes are required to be `Send + Sync`: their parameters are immutable
/// after construction, and both the parallel join driver and the serving
/// layer (`ssj-serve`) share one scheme across worker threads.
pub trait SignatureScheme: Send + Sync {
    /// Appends the signatures of `set` (sorted, deduplicated) to `out`.
    ///
    /// `out` is a reusable buffer: callers clear it between sets. Duplicate
    /// signatures within one set are permitted (the join driver deduplicates
    /// per-set where it matters) but schemes should avoid emitting them.
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>);

    /// Like [`Self::signatures_into`], threading caller-provided scratch
    /// for the scheme's internal temporaries. Hot callers (the join
    /// driver, the incremental index, the serving layer) hold one
    /// [`SigScratch`] per worker and call this; the default ignores the
    /// scratch for schemes that allocate nothing internally.
    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        let _ = scratch;
        self.signatures_into(set, out);
    }

    /// Writes `set`'s signatures into `out` (cleared first), sorted and
    /// deduplicated: the per-set form the join driver, the extern executor
    /// and the cost model all count, so their counts agree.
    fn signature_set(&self, set: &[ElementId], scratch: &mut SigScratch, out: &mut Vec<Signature>) {
        out.clear();
        self.signatures_scratch(set, scratch, out);
        out.sort_unstable();
        out.dedup();
    }

    /// Convenience wrapper returning a fresh vector.
    fn signatures(&self, set: &[ElementId]) -> Vec<Signature> {
        // hotlint: allow(hot-scratch, fn): convenience wrapper for tests and one-shot callers — hot paths thread SigScratch through signatures_scratch.
        let mut out = Vec::new();
        self.signatures_into(set, &mut out);
        out
    }

    /// Whether the correctness requirement holds only probabilistically
    /// (LSH-style schemes). Exact schemes return `false`; the join driver
    /// records this in the result so downstream code knows whether the
    /// answer is guaranteed complete.
    fn is_approximate(&self) -> bool {
        false
    }

    /// The largest set length the scheme can sign, or `None` if unbounded.
    ///
    /// Size-partitioned schemes (jaccard PartEnum) are built to cover a
    /// fixed size range; a longer set gets *no* signatures, so callers that
    /// may see out-of-range sets (the incremental index, the serving layer)
    /// must check this bound and fall back or report an error instead of
    /// silently dropping pairs.
    fn max_signable_len(&self) -> Option<usize> {
        None
    }

    /// A short human-readable name for reports ("PEN", "PF", "LSH", ...).
    fn name(&self) -> &'static str {
        "SIG"
    }
}

impl<T: SignatureScheme + ?Sized> SignatureScheme for &T {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        (**self).signatures_into(set, out)
    }
    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        (**self).signatures_scratch(set, scratch, out)
    }
    fn is_approximate(&self) -> bool {
        (**self).is_approximate()
    }
    fn max_signable_len(&self) -> Option<usize> {
        (**self).max_signable_len()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: SignatureScheme + ?Sized> SignatureScheme for Box<T> {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        (**self).signatures_into(set, out)
    }
    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        (**self).signatures_scratch(set, scratch, out)
    }
    fn is_approximate(&self) -> bool {
        (**self).is_approximate()
    }
    fn max_signable_len(&self) -> Option<usize> {
        (**self).max_signable_len()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scheme: one signature per element (the identity scheme of
    /// Section 3.3, used by Probe-Count/Pair-Count).
    struct Identity;

    impl SignatureScheme for Identity {
        fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
            out.extend(set.iter().map(|&e| e as u64));
        }
        fn name(&self) -> &'static str {
            "ID"
        }
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let scheme = Identity;
        assert_eq!(scheme.signatures(&[1, 2, 3]), vec![1, 2, 3]);
        let as_ref: &dyn SignatureScheme = &scheme;
        assert_eq!(as_ref.signatures(&[4]), vec![4]);
        assert_eq!(as_ref.name(), "ID");
        assert!(!as_ref.is_approximate());
        let boxed: Box<dyn SignatureScheme> = Box::new(Identity);
        assert_eq!(boxed.signatures(&[9]), vec![9]);
    }

    #[test]
    fn signatures_into_reuses_buffer() {
        let scheme = Identity;
        let mut buf = vec![99, 98];
        buf.clear();
        scheme.signatures_into(&[5, 6], &mut buf);
        assert_eq!(buf, vec![5, 6]);
    }
}
