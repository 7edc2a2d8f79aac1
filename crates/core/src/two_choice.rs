//! The 2-choice sampling variant sketched at the end of §V-C.
//!
//! Scanning every used PM per placement costs `O(|used|)` score
//! evaluations. The paper notes the classic power-of-two-choices result
//! [Azar et al., Mitzenmacher]: sampling two PMs at random and keeping the
//! better one captures most of the benefit at `O(1)` cost. This placer
//! samples `poll_size` used PMs, rates only those with the exhaustive
//! placer's cached rater, and falls back to the full Algorithm 2 path
//! when no sampled PM scores.

use crate::placer::PageRankVmPlacer;
use crate::table::ScoreBook;
use prvm_model::{best_of, Cluster, PlacementAlgorithm, PlacementDecision, PmId, VmSpec};
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// PageRankVM with sampled candidate PMs.
#[derive(Debug)]
pub struct TwoChoicePlacer {
    inner: PageRankVmPlacer,
    rng: StdRng,
    poll_size: NonZeroUsize,
}

impl TwoChoicePlacer {
    /// Sample two candidates per placement (the paper's recommendation).
    #[must_use]
    pub fn new(book: Arc<ScoreBook>, seed: u64) -> Self {
        Self::with_poll_size(book, seed, NonZeroUsize::MIN.saturating_add(1))
    }

    /// Sample `poll_size` candidates per placement.
    #[must_use]
    pub fn with_poll_size(book: Arc<ScoreBook>, seed: u64, poll_size: NonZeroUsize) -> Self {
        Self {
            inner: PageRankVmPlacer::new(book),
            rng: StdRng::seed_from_u64(seed),
            poll_size,
        }
    }

    /// Number of used PMs sampled per placement.
    #[must_use]
    pub fn poll_size(&self) -> NonZeroUsize {
        self.poll_size
    }
}

impl PlacementAlgorithm for TwoChoicePlacer {
    fn name(&self) -> &str {
        "PageRankVM-2choice"
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        let sample: Vec<PmId> = cluster
            .used_pms()
            .filter(|&pm| !exclude(pm))
            .choose_multiple(&mut self.rng, self.poll_size.get());
        let rate = self.inner.rater(cluster, vm);
        match best_of(cluster, sample, vm, exclude, rate) {
            Some(((true, _), decision)) => Some(decision),
            // No sampled PM scored: defer to the exhaustive Algorithm 2
            // so the placement does not fail spuriously.
            _ => self.inner.choose(cluster, vm, exclude),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::pagerank::PageRankConfig;
    use prvm_model::{catalog, place_batch, Quantizer};

    fn book() -> Arc<ScoreBook> {
        Arc::new(
            ScoreBook::build(
                Quantizer::default(),
                &[catalog::geni_pm()],
                &catalog::geni_vm_types(),
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn places_all_vms() {
        let mut placer = TwoChoicePlacer::new(book(), 42);
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 8);
        let vms = vec![catalog::geni_vm_2(); 20];
        let ids = place_batch(&mut placer, &mut cluster, vms).unwrap();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut placer = TwoChoicePlacer::new(book(), seed);
            let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 8);
            let vms: Vec<_> = (0..16)
                .map(|i| {
                    if i % 2 == 0 {
                        catalog::geni_vm_2()
                    } else {
                        catalog::geni_vm_4()
                    }
                })
                .collect();
            place_batch(&mut placer, &mut cluster, vms).unwrap();
            cluster
                .used_pms()
                .map(|pm| cluster.pm(pm).vm_count())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn falls_back_to_exhaustive_scan() {
        // With poll size 1 and a nearly-full cluster the sample often
        // misses; placement must still succeed while capacity remains.
        let mut placer = TwoChoicePlacer::with_poll_size(book(), 3, NonZeroUsize::MIN);
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 4);
        // 4 PMs x 16 slots = 64 slots; 24 x [1,1] = 48 slots. A poll of
        // one frequently samples a full PM; the exhaustive fallback must
        // still place everything.
        let vms = vec![catalog::geni_vm_2(); 24];
        let ids = place_batch(&mut placer, &mut cluster, vms).unwrap();
        assert_eq!(ids.len(), 24);
    }
}
