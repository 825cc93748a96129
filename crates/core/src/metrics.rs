//! Instrumentation shared by every decomposition algorithm.
//!
//! The paper's evaluation plots three internal quantities besides wall
//! time: the number of butterfly-support updates (Figures 7, 10, 14b),
//! the split between counting and peeling time (Figure 5), and the BE-
//! Index size (Figure 11). [`Metrics`] collects all of them.

use std::time::Duration;

use bigraph::{EdgeId, Error, Result};

/// Most bucket bounds an [`UpdateHistogram`] takes: the bucket of each
/// edge is stored as a `u8`, and `n` bounds make `n + 1` buckets.
pub const MAX_HISTOGRAM_BOUNDS: usize = 254;

/// Histogram of support updates bucketed by each edge's *original*
/// butterfly support — Figure 7's "number of updates per range of original
/// butterfly supports", which exposes the hub-edge problem.
#[derive(Debug, Clone)]
pub struct UpdateHistogram {
    /// Upper bounds of the buckets (exclusive), ascending; one final
    /// implicit bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// Precomputed bucket of each edge (global edge ids).
    bucket_of_edge: Vec<u8>,
    /// Update counts per bucket (`bounds.len() + 1` entries).
    counts: Vec<u64>,
}

impl UpdateHistogram {
    /// Checks bucket bounds: strictly ascending, and at most
    /// [`MAX_HISTOGRAM_BOUNDS`] of them.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] naming the first violation.
    pub(crate) fn check_bounds(bounds: &[u64]) -> Result<()> {
        if let Some(w) = bounds.windows(2).find(|w| w[0] >= w[1]) {
            return Err(Error::Invariant(format!(
                "histogram bounds must ascend strictly, got {} then {}",
                w[0], w[1]
            )));
        }
        if bounds.len() > MAX_HISTOGRAM_BOUNDS {
            return Err(Error::Invariant(format!(
                "{} histogram bounds, at most {MAX_HISTOGRAM_BOUNDS} are supported",
                bounds.len()
            )));
        }
        Ok(())
    }

    /// Creates a histogram with the given bucket bounds over edges whose
    /// original supports are `original_supports`.
    ///
    /// # Panics
    ///
    /// When `bounds` do not ascend strictly or number more than
    /// [`MAX_HISTOGRAM_BOUNDS`];
    /// [`EngineBuilder::build`](crate::EngineBuilder::build) checks them
    /// first and returns the error instead.
    pub fn new(bounds: Vec<u64>, original_supports: &[u64]) -> Self {
        // Unsorted bounds would bucket silently wrong, and too many would
        // wrap the u8 bucket index, so the check holds in release too.
        if let Err(e) = Self::check_bounds(&bounds) {
            panic!("{e}"); // xtask:allow(no-panic-lib) the engine rejects invalid bounds with a typed error before any run; a direct caller gets a panic rather than a silently wrong histogram
        }
        let bucket_of_edge = original_supports
            .iter()
            .map(|&s| bounds.partition_point(|&b| b <= s) as u8)
            .collect();
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            bucket_of_edge,
            counts,
        }
    }

    /// Records one update to a (global) edge.
    #[inline]
    pub fn record(&mut self, e: EdgeId) {
        let bucket = self.bucket(e);
        self.counts[bucket] += 1;
    }

    /// The bucket of (global) edge `e`. A thread that cannot share the
    /// histogram mutably tallies its updates per bucket and hands the
    /// tally to [`UpdateHistogram::add_counts`].
    #[inline]
    pub(crate) fn bucket(&self, e: EdgeId) -> usize {
        self.bucket_of_edge[e.index()] as usize
    }

    /// Adds per-bucket update counts tallied against
    /// [`UpdateHistogram::bucket`].
    pub(crate) fn add_counts(&mut self, counts: &[u64]) {
        for (total, &n) in self.counts.iter_mut().zip(counts) {
            *total += n;
        }
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Update counts per bucket (last bucket = above the last bound).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Human-readable labels like `"<5000"`, `"5000-9999"`, `">=20000"`.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.counts.len());
        for (i, &b) in self.bounds.iter().enumerate() {
            if i == 0 {
                labels.push(format!("<{b}"));
            } else {
                labels.push(format!("{}-{}", self.bounds[i - 1], b - 1));
            }
        }
        labels.push(match self.bounds.last() {
            Some(&b) => format!(">={b}"),
            None => "all".to_string(),
        });
        labels
    }
}

/// Phase timings and counters for one decomposition run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Total butterfly-support updates performed during peeling.
    pub support_updates: u64,
    /// Time spent counting supports (includes BiT-PC's recounts).
    pub counting_time: Duration,
    /// Time spent constructing BE-Indexes (zero for BiT-BS).
    pub index_time: Duration,
    /// Time spent peeling (removal operations and queue work). For the
    /// two-phase engine this is the critical-path tail of its band
    /// peels: from the end of the coarse scan until the last band is
    /// peeled. Band peels that overlap the scan count in
    /// [`Metrics::partition_time`].
    pub peeling_time: Duration,
    /// Time spent in the coarse band-partitioning scan, on the calling
    /// thread (the two-phase engine's phase 1, while band workers
    /// already peel the bands it released; zero for every other
    /// algorithm).
    pub partition_time: Duration,
    /// Time spent stitching per-band φ results and settling boundary
    /// migrations (the two-phase engine only; zero otherwise).
    pub stitch_time: Duration,
    /// Number of φ bands the two-phase engine partitioned the range into
    /// (0 for every other algorithm).
    pub bands: usize,
    /// Time spent extracting candidate subgraphs (BiT-PC only).
    pub extraction_time: Duration,
    /// Number of ε-iterations (BiT-PC; 1 for the others).
    pub iterations: u32,
    /// Peak BE-Index size in bytes over the run (0 for BiT-BS).
    pub peak_index_bytes: usize,
    /// Worker threads the counting phase was *configured* with (0 = the
    /// sequential engine, which does not set the per-phase counts). Small
    /// inputs may still run sequentially under the hood — the parallel
    /// entry points fall back below their size thresholds.
    pub counting_threads: usize,
    /// Worker threads the index-construction phase was configured with
    /// (0 = sequential engine; same fallback caveat as counting).
    pub index_threads: usize,
    /// Worker threads the peeling phase can fan out to (0 = sequential
    /// engine; light batches run inline even when this is > 1).
    pub peeling_threads: usize,
    /// Scratch allocated beside the index by the parallel engines, in
    /// bytes. BiT-BU++/P: its thread-local phase-2 buffers (0 until a
    /// batch is heavy enough to fan out). BiT-BU++2P: the coarse scan's
    /// own state, every band job it queued and each band worker's
    /// scratch. Reported separately from [`Metrics::peak_index_bytes`]
    /// so the engine's true memory footprint stays visible next to the
    /// index's.
    pub scratch_bytes: usize,
    /// Dynamic maintenance only: edges the affected-region analyzer
    /// marked for re-peeling (0 for full decomposition runs).
    pub affected_edges: u64,
    /// Dynamic maintenance only: edges whose φ was carried over from the
    /// previous decomposition without re-peeling (0 for full runs).
    pub reused_edges: u64,
    /// Optional per-original-support update histogram (Figure 7).
    pub histogram: Option<UpdateHistogram>,
    /// Memory accounting of the run (graph residency, index peak, page
    /// cache, spill traffic). Filled by the engine for both the
    /// in-memory and the budgeted path; `None` for direct algorithm
    /// calls that bypass the engine.
    pub memory: Option<bitruss_storage::MemoryReport>,
}

impl Metrics {
    /// Total wall time across the phases.
    pub fn total_time(&self) -> Duration {
        self.counting_time
            + self.index_time
            + self.partition_time
            + self.peeling_time
            + self.stitch_time
            + self.extraction_time
    }

    /// Fraction of edges whose φ survived a maintenance run untouched
    /// (`reused / (reused + affected)`); 0.0 for full decomposition runs
    /// (which reuse nothing).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.affected_edges + self.reused_edges;
        if total == 0 {
            0.0
        } else {
            self.reused_edges as f64 / total as f64
        }
    }

    /// Enables histogram collection with the given bucket bounds over the
    /// original supports.
    pub fn enable_histogram(&mut self, bounds: Vec<u64>, original_supports: &[u64]) {
        self.histogram = Some(UpdateHistogram::new(bounds, original_supports));
    }

    /// Records one support update attributed to global edge `e`.
    #[inline]
    pub fn record_update(&mut self, e: EdgeId) {
        self.support_updates += 1;
        if let Some(h) = &mut self.histogram {
            h.record(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let orig = vec![0, 4999, 5000, 19_999, 20_000, 100_000];
        let mut h = UpdateHistogram::new(vec![5_000, 10_000, 15_000, 20_000], &orig);
        for (e, _) in orig.iter().enumerate() {
            h.record(EdgeId(e as u32));
        }
        assert_eq!(h.counts(), &[2, 1, 0, 1, 2]);
        assert_eq!(
            h.labels(),
            vec![
                "<5000",
                "5000-9999",
                "10000-14999",
                "15000-19999",
                ">=20000"
            ]
        );
    }

    #[test]
    fn invalid_bounds_are_rejected_by_the_builder() {
        let g = bigraph::GraphBuilder::new()
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1)])
            .build()
            .unwrap();
        let too_many: Vec<u64> = (0..=MAX_HISTOGRAM_BOUNDS as u64).collect();
        for bounds in [vec![10, 5], vec![5, 5], too_many] {
            let err = crate::BitrussEngine::builder()
                .histogram_bounds(bounds.clone())
                .build_borrowed(&g)
                .unwrap_err();
            assert!(matches!(err, Error::Invariant(_)), "{bounds:?}: {err}");
        }
        let most: Vec<u64> = (0..MAX_HISTOGRAM_BOUNDS as u64).collect();
        let session = crate::BitrussEngine::builder()
            .histogram_bounds(most)
            .build_borrowed(&g)
            .unwrap();
        let histogram = session.metrics().unwrap().histogram.as_ref().unwrap();
        assert_eq!(histogram.counts().len(), MAX_HISTOGRAM_BOUNDS + 1);
    }

    #[test]
    fn metrics_totals() {
        let mut m = Metrics {
            counting_time: Duration::from_millis(5),
            peeling_time: Duration::from_millis(7),
            partition_time: Duration::from_millis(2),
            stitch_time: Duration::from_millis(1),
            ..Metrics::default()
        };
        assert_eq!(m.total_time(), Duration::from_millis(15));
        m.enable_histogram(vec![10], &[3, 30]);
        m.record_update(EdgeId(0));
        m.record_update(EdgeId(1));
        m.record_update(EdgeId(1));
        assert_eq!(m.support_updates, 3);
        assert_eq!(m.histogram.as_ref().unwrap().counts(), &[1, 2]);
    }
}
