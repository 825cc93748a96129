//! BiT-BU++2P — two-phase partition-parallel peeling (RECEIPT/PBNG
//! style), pipelined.
//!
//! The per-batch fork/join of BiT-BU++/P
//! ([`Algorithm::BuPlusPlusPar`](crate::Algorithm::BuPlusPlusPar))
//! synchronizes workers at every support level; on graphs with many
//! small batches the joins dominate and two threads can run *slower*
//! than one. This module replaces per-batch fan-out with a coarse scan
//! that assigns φ *bands* and independent per-band peels, and overlaps
//! the two:
//!
//! 1. **Partition** ([`Phase::Partition`]): the calling thread runs one
//!    coarse bottom-up scan inline. It splits the φ range into `P`
//!    contiguous bands `(t₀, t₁], (t₁, t₂], …` chosen from support
//!    quantiles, and assigns every edge its band by running the peeling
//!    fixpoint to each threshold in turn. Removing every edge with
//!    support ≤ t leaves the maximal subgraph in which all supports
//!    exceed t, so the edges removed while working towards threshold
//!    `t_p` are **exactly** `{e : t_{p−1} < φ(e) ≤ t_p}` — band
//!    assignment is not a heuristic. The scan keeps its own wedge-alive
//!    bits, bloom sizes and residual-edge bits, so the [`BeIndex`] stays
//!    read-only and shared.
//! 2. **Band peel** ([`Phase::Peeling`]): as soon as the scan passes
//!    `t_p` it hands band `p` to a pool of `threads − 1` band workers as
//!    one *band job*, cut from the scan itself: the band's member edges
//!    with their *entry supports* (butterfly supports in the residual
//!    graph `G_p` at band `p`'s start), the wedges the scan killed while
//!    in band `p` grouped by bloom, and each such bloom's wedge count
//!    `k` at band start. A worker peels the band with partition-local
//!    state — a local bucket queue over the band's edges, local delta
//!    buffers, local wedge and edge stamps — while the scan moves on to
//!    band `p + 1`. Once the scan releases the top band (everything
//!    above the last threshold) the calling thread joins the pool. There
//!    is **no cross-partition synchronization** inside a band:
//!    higher-band edges are read-only context and lower-band edges are
//!    gone.
//!
//! The calling thread reports [`Phase::Partition`] around the scan and
//! [`Phase::Peeling`] around the tail after it; band peels that overlap
//! the scan report progress only, so phase events stay nested on one
//! thread.
//!
//! A final **stitch** pass ([`Phase::Stitch`]) merges the per-band φ
//! fragments and validates the *band invariant*: every edge's φ must lie
//! inside its assigned band. The invariant is a theorem of the
//! construction (see below), so the validation normally finds nothing;
//! if a violation is ever observed, the offending edges are re-peeled
//! against the frozen remainder via
//! [`repeel_region`] — the same
//! frozen-boundary mechanics the dynamic maintenance layer uses — and
//! the migration is recorded in the returned [`StitchLog`].
//!
//! # Why the per-band peel is exact
//!
//! At band `p`'s start the residual graph `G_p` contains exactly the
//! edges with φ > t_{p−1}. Every surviving edge's tracked support equals
//! its true support in `G_p` (all clamp floors so far are ≤ t_{p−1} <
//! φ(e) ≤ true support). During the levels of band `p` the global peel
//! removes only band-`p` edges, so the support trajectories of band-`p`
//! edges depend only on `G_p`'s topology and the band's own removals —
//! and the band job carries both. Entry supports are the scan's exact
//! supports at band start. A wedge's band is `min(band(e1), band(e2))`:
//! the scan kills it when its first member leaves, so the wedges it
//! killed while in band `p` are exactly the wedges of `G_p` with a
//! band-`p` member — the only wedges a band-`p` removal can kill, and the
//! only ones holding an edge the band tracks. The `k` a bloom had at the
//! band's first kill in it is its wedge count in `G_p`, because the scan
//! lowers `k` only after a sub-round's kills. The worker then replays
//! Algorithm 5's batch accounting with the aggregated one-write-per-edge
//! deltas of BiT-BU#. The `max(MBS, ·)` clamp composes across merged
//! writes, so the resulting φ is bit-identical to sequential BiT-BU++
//! for every thread count and every band count.
//!
//! Because a band worker never tracks supports of higher-band edges,
//! the hub-edge write traffic that dominates the sequential peel (low
//! levels repeatedly decrementing high-support edges) disappears:
//! `support_updates` drops well below even BiT-BU#'s aggregated count,
//! which is what makes the engine faster at one *and* two threads.
//!
//! (Missing-docs enforcement moved to the crate root — see
//! `missing-docs-parity` in docs/LINTS.md.)

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use beindex::{BeIndex, BloomId, WedgeId};
use bigraph::progress::{checkpoint, EngineObserver, Phase};
use bigraph::{BipartiteGraph, EdgeId, Result};
use butterfly::{count_per_edge_parallel_observed, Threads};

use crate::algo::peel::bump;
use crate::bucket_queue::BucketQueue;
use crate::decomposition::Decomposition;
use crate::metrics::{Metrics, UpdateHistogram};
use crate::repeel::repeel_region;

/// Default number of φ bands the partition scan aims for. Constant (not
/// a function of the thread count) so φ *and* `support_updates` are
/// identical across thread counts; 16 bands load-balance up to ~8
/// workers through the band queue.
pub const DEFAULT_NUM_BANDS: usize = 16;

/// One edge the stitch pass found outside its assigned band (never
/// produced by a correct build — kept so tests can assert the invariant
/// and any regression is observable instead of silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchMigration {
    /// The out-of-band edge.
    pub edge: EdgeId,
    /// The band the partition scan assigned it.
    pub band: u32,
    /// The φ the band peel produced for it (outside the band's range).
    pub phi: u64,
}

/// Record of the stitch pass: which edges (if any) escaped their band
/// and were settled by a frozen-boundary re-peel.
#[derive(Debug, Clone, Default)]
pub struct StitchLog {
    /// Out-of-band edges, ascending by edge id; empty on every correct
    /// run (the band invariant is a theorem, see the module docs).
    pub migrations: Vec<StitchMigration>,
}

/// The partition produced by phase 1, returned alongside the
/// decomposition by [`bit_bu_pp_2p_with_outcome`] so tests and tools can
/// audit band assignment.
#[derive(Debug, Clone, Default)]
pub struct BandPartition {
    /// Ascending inclusive upper thresholds `t_0 < t_1 < …` of bands
    /// `0 … P−2`; band `P−1` is unbounded above. Empty means a single
    /// band covered everything.
    pub bounds: Vec<u64>,
    /// Band index of every edge (indexed by edge id).
    pub band_of_edge: Vec<u32>,
    /// What the stitch pass had to settle (normally nothing).
    pub stitch: StitchLog,
}

impl BandPartition {
    /// Number of bands.
    pub fn num_bands(&self) -> usize {
        self.bounds.len() + 1
    }

    /// The inclusive φ range `(lo, hi)` of band `p`; `hi` is `None` for
    /// the last (unbounded) band.
    pub fn band_range(&self, p: u32) -> (u64, Option<u64>) {
        let lo = if p == 0 {
            0
        } else {
            self.bounds[p as usize - 1] + 1
        };
        (lo, self.bounds.get(p as usize).copied())
    }

    /// Whether `phi` lies inside band `p`.
    pub fn in_band(&self, p: u32, phi: u64) -> bool {
        let (lo, hi) = self.band_range(p);
        phi >= lo && hi.is_none_or(|h| phi <= h)
    }
}

/// Runs BiT-BU++2P with `num_bands` bands (the engine's
/// [`Algorithm::BuPlusPlusTwoPhase`](crate::Algorithm::BuPlusPlusTwoPhase)
/// uses [`DEFAULT_NUM_BANDS`]) and also returns the [`BandPartition`]
/// (band bounds, per-edge band assignment, stitch log) for auditing.
/// The decomposition is bit-identical to BiT-BU++ for every thread and
/// band count (`Threads(0)` = auto); `num_bands ≤ 1` degenerates to a
/// single band (one sequential BiT-BU#-style peel).
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation.
pub fn bit_bu_pp_2p_with_outcome(
    g: &BipartiteGraph,
    threads: Threads,
    num_bands: usize,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics, BandPartition)> {
    bit_bu_pp_2p_run(g, threads, num_bands, None, observer)
}

pub(crate) fn bit_bu_pp_2p_run(
    g: &BipartiteGraph,
    threads: Threads,
    num_bands: usize,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics, BandPartition)> {
    // Cap workers at the machine's parallelism: the engine is CPU-bound
    // end to end, so oversubscribed workers only add scheduling overhead
    // — and φ, band assignment, and `support_updates` are all
    // independent of the worker count by construction.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = threads.resolve().min(hw).max(1);
    let mut metrics = Metrics {
        counting_threads: t,
        index_threads: t,
        peeling_threads: t,
        iterations: 1,
        ..Metrics::default()
    };
    let m = g.num_edges() as usize;

    let t0 = Instant::now();
    let counts = count_per_edge_parallel_observed(g, t, observer)?;
    metrics.counting_time = t0.elapsed();

    let t1 = Instant::now();
    let index = BeIndex::build_parallel_observed(g, Threads(t), observer)?;
    metrics.index_time = t1.elapsed();
    metrics.peak_index_bytes = index.memory_bytes();
    // Built here but filled only after the pool is done: until then the
    // workers read its bucket map and tally into their own counts.
    let histogram = histogram_bounds.map(|b| UpdateHistogram::new(b.to_vec(), &counts.per_edge));

    // Phase 1 on the calling thread, phase 2 on the pool as bands are
    // released; the calling thread joins the pool after the top band.
    let t2 = Instant::now();
    observer.on_phase_start(Phase::Partition, m as u64);
    let bounds = band_bounds(&counts.per_edge, num_bands);
    let nb = bounds.len() + 1;
    metrics.bands = nb;
    let workers = t.min(nb);
    let ctx = BandContext {
        index: &index,
        histogram: histogram.as_ref(),
        popped: AtomicU64::new(0),
        total: m as u64,
        observer,
    };
    let queue = BandQueue::default();
    let scan = CoarseScan::new(&index, counts.per_edge, observer, histogram.as_ref());
    let (scan, peeled, tallies) = std::thread::scope(|scope| -> Result<_> {
        // Wakes idle workers with `failed` on every way out of this
        // closure, so an error or a panic in the scan cannot leave them
        // waiting for a band that never comes.
        let _close = CloseOnDrop(&queue);
        let pool: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| band_worker(&ctx, &queue)))
            .collect();
        let scan = scan.run(&bounds, &queue)?;
        metrics.partition_time = t2.elapsed();
        observer.on_phase_end(Phase::Partition);

        let t3 = Instant::now();
        observer.on_phase_start(Phase::Peeling, m as u64);
        queue.close(false);
        let mut outputs = vec![band_worker(&ctx, &queue)];
        outputs.extend(
            pool.into_iter()
                .map(|h| h.join().expect("band worker panicked")), // xtask:allow(no-panic-lib) Err here means a worker panicked; workers are panic-free by this same lint, and propagating a real panic is the correct failure mode
        );
        let mut peeled = Vec::with_capacity(nb);
        let mut tallies = Vec::with_capacity(workers);
        for output in outputs {
            let (bands, tally) = output?;
            peeled.extend(bands);
            tallies.push(tally);
        }
        metrics.peeling_time = t3.elapsed();
        observer.on_phase_end(Phase::Peeling);
        Ok((scan, peeled, tallies))
    })?;
    metrics.histogram = histogram;
    for tally in tallies.iter().chain([&scan.tally]) {
        tally.add_to(&mut metrics);
    }
    metrics.scratch_bytes = scan.scratch_bytes + workers * BandScratch::memory_bytes(&index);

    // Stitch: merge per-band φ fragments and enforce the band invariant.
    let t4 = Instant::now();
    observer.on_phase_start(Phase::Stitch, m as u64);
    checkpoint(observer)?;
    let mut phi = vec![0u64; m];
    for pairs in &peeled {
        for &(e, v) in pairs {
            phi[e as usize] = v;
        }
    }
    let mut outcome = BandPartition {
        bounds,
        band_of_edge: scan.band,
        stitch: StitchLog::default(),
    };
    let mut region: Vec<bool> = Vec::new();
    for e in 0..m {
        let p = outcome.band_of_edge[e];
        if !outcome.in_band(p, phi[e]) {
            if region.is_empty() {
                region = vec![false; m];
            }
            region[e] = true;
            outcome.stitch.migrations.push(StitchMigration {
                edge: EdgeId(e as u32),
                band: p,
                phi: phi[e],
            });
        }
    }
    if !outcome.stitch.migrations.is_empty() {
        // Fallback repair (unreachable on a correct build, see module
        // docs): replay the escaped edges against the frozen remainder.
        let (fixed, _) = repeel_region(g, &phi, &region, observer)?;
        phi = fixed;
    }
    metrics.stitch_time = t4.elapsed();
    observer.on_phase_end(Phase::Stitch);

    Ok((Decomposition::new(phi), metrics, outcome))
}

/// Picks ascending band thresholds from the support distribution's
/// quantiles — the same "bucket edges by original support" histogram
/// view Figure 7 uses, here as a *work estimate*: φ(e) ≤ sup(e), and
/// equal-mass support buckets give bands of roughly equal peel work.
/// Thresholds at or above the maximum support are dropped (the last
/// band is unbounded); duplicate quantiles collapse, so skewed
/// distributions simply yield fewer bands.
fn band_bounds(supports: &[u64], num_bands: usize) -> Vec<u64> {
    if supports.is_empty() || num_bands <= 1 {
        return Vec::new();
    }
    let mut sorted = supports.to_vec();
    sorted.sort_unstable();
    let m = sorted.len();
    let max = sorted[m - 1];
    let mut bounds = Vec::new();
    for p in 1..num_bands {
        let q = sorted[(p * m / num_bands).min(m - 1)];
        if q < max && bounds.last() != Some(&q) {
            bounds.push(q);
        }
    }
    bounds
}

/// One band's work order, cut by the coarse scan as it leaves the band:
/// everything the band's peel needs, so a worker reads nothing the scan
/// still writes.
struct BandJob {
    /// The band's index.
    band: u32,
    /// Member edges, in the order the scan assigned them.
    members: Vec<u32>,
    /// Entry support of each member (parallel to `members`): its
    /// butterfly support in `G_band`, the residual graph at band start.
    entry: Vec<u64>,
    /// The wedges the scan killed while in this band — exactly the
    /// wedges whose band is this one.
    wedges: Vec<u32>,
    /// `(bloom, k)` for every bloom holding one of `wedges`, `k` being
    /// the bloom's wedge count at band start.
    blooms: Vec<(u32, u32)>,
    /// Work estimate (members plus entry supports); the queue hands out
    /// the largest waiting band first.
    work: u64,
}

impl BandJob {
    fn new(band: u32) -> BandJob {
        BandJob {
            band,
            members: Vec::new(),
            entry: Vec::new(),
            wedges: Vec::new(),
            blooms: Vec::new(),
            work: 0,
        }
    }

    fn add_member(&mut self, e: usize, entry: u64) {
        self.members.push(e as u32);
        self.entry.push(entry);
        self.work += 1 + entry;
    }

    fn memory_bytes(&self) -> usize {
        self.members.capacity() * 4
            + self.entry.capacity() * 8
            + self.wedges.capacity() * 4
            + self.blooms.capacity() * 8
    }
}

/// One thread's support-update tally: the count, plus per-bucket counts
/// when the run collects an [`UpdateHistogram`]. Threads tally against
/// the shared histogram's bucket map and the totals merge by addition.
struct Tally {
    updates: u64,
    buckets: Vec<u64>,
}

impl Tally {
    fn new(histogram: Option<&UpdateHistogram>) -> Tally {
        Tally {
            updates: 0,
            buckets: histogram.map_or_else(Vec::new, |h| vec![0; h.counts().len()]),
        }
    }

    #[inline]
    fn record(&mut self, histogram: Option<&UpdateHistogram>, e: EdgeId) {
        self.updates += 1;
        if let Some(h) = histogram {
            self.buckets[h.bucket(e)] += 1;
        }
    }

    fn add_to(&self, metrics: &mut Metrics) {
        metrics.support_updates += self.updates;
        if let Some(h) = &mut metrics.histogram {
            h.add_counts(&self.buckets);
        }
    }
}

/// What the coarse scan leaves behind once every band is released.
struct ScanOutcome {
    /// Band index per edge.
    band: Vec<u32>,
    /// Support updates the scan performed.
    tally: Tally,
    /// The scan's own state plus every band job it cut, in bytes.
    scratch_bytes: usize,
}

/// The coarse bottom-up scan: for each threshold `t_p` in turn, run the
/// peeling fixpoint in huge sub-rounds (everything at support ≤ `t_p`
/// peels together) with BiT-BU#-style aggregated deltas, inline on the
/// calling thread. Supports are **exact** here (no clamping): the scan
/// tracks true residual supports so each band's entry supports can be
/// handed to its peel. It never writes the [`BeIndex`]; the wedge-alive
/// bits, bloom sizes and residual-edge bits it evolves are its own.
struct CoarseScan<'a> {
    index: &'a BeIndex,
    observer: &'a dyn EngineObserver,
    histogram: Option<&'a UpdateHistogram>,
    /// Exact residual supports.
    supp: Vec<u64>,
    /// Band index per edge; edges no threshold claims stay in the top
    /// band.
    band: Vec<u32>,
    /// `queued[e]`: e has been claimed by some band (sticky).
    queued: Vec<bool>,
    /// `present[e]`: e is still in the residual graph.
    present: Vec<bool>,
    /// Lazy entry-support snapshots: `snap[e]` holds e's support at the
    /// start of band `snap_band[e] − 1`'s fixpoint, captured on the first
    /// delta that band applies to e (stamp 0 = never).
    snap: Vec<u64>,
    snap_band: Vec<u32>,
    /// Liveness per wedge; a wedge dies with its first member.
    alive: Vec<bool>,
    /// Bloom wedge counts `k` as the scan evolves them.
    k: Vec<u32>,
    /// Stamp per bloom: `band + 1` once that band killed one of its
    /// wedges, i.e. once the band job recorded the bloom's `k`.
    seen: Vec<u32>,
    /// Per-bloom killed-wedge counts of the current sub-round
    /// (take-reset).
    c: Vec<u32>,
    touched_blooms: Vec<u32>,
    /// Aggregated per-edge deltas of the current sub-round (take-reset).
    delta: Vec<u64>,
    touched_edges: Vec<u32>,
    pending: Vec<EdgeId>,
    batch: Vec<EdgeId>,
    /// Edges assigned a band so far (progress).
    assigned: u64,
    tally: Tally,
}

impl<'a> CoarseScan<'a> {
    fn new(
        index: &'a BeIndex,
        supp: Vec<u64>,
        observer: &'a dyn EngineObserver,
        histogram: Option<&'a UpdateHistogram>,
    ) -> CoarseScan<'a> {
        let m = supp.len();
        let nbl = index.num_blooms() as usize;
        CoarseScan {
            index,
            observer,
            histogram,
            supp,
            band: vec![0; m],
            queued: vec![false; m],
            present: (0..m).map(|e| index.in_index(EdgeId(e as u32))).collect(),
            snap: vec![0; m],
            snap_band: vec![0; m],
            alive: (0..index.num_wedges())
                .map(|w| index.wedge_alive(WedgeId(w)))
                .collect(),
            k: (0..nbl as u32).map(|b| index.bloom_k(BloomId(b))).collect(),
            seen: vec![0; nbl],
            c: vec![0; nbl],
            touched_blooms: Vec::new(),
            delta: vec![0; m],
            touched_edges: Vec::new(),
            pending: Vec::new(),
            batch: Vec::new(),
            assigned: 0,
            tally: Tally::new(histogram),
        }
    }

    /// Scans every band in turn, pushing each band's job as soon as the
    /// scan leaves it, the top band last.
    fn run(mut self, bounds: &[u64], queue: &BandQueue) -> Result<ScanOutcome> {
        let mut job_bytes = 0;
        for (p, &t_p) in bounds.iter().enumerate() {
            let job = self.scan_band(p as u32, t_p)?;
            job_bytes += job.memory_bytes();
            queue.push(job);
        }
        let top = self.top_band(bounds.len() as u32);
        job_bytes += top.memory_bytes();
        queue.push(top);
        let m = self.supp.len();
        let scratch_bytes =
            job_bytes + m * (8 + 4 + 1 + 1 + 8 + 4 + 8) + self.alive.len() + self.k.len() * 12;
        Ok(ScanOutcome {
            band: self.band,
            tally: self.tally,
            scratch_bytes,
        })
    }

    /// Runs the fixpoint to threshold `t_p`: band `p` is every edge it
    /// removes.
    fn scan_band(&mut self, p: u32, t_p: u64) -> Result<BandJob> {
        let stamp = p + 1;
        let m = self.supp.len();
        let mut job = BandJob::new(p);
        for e in 0..m {
            if !self.queued[e] && self.supp[e] <= t_p {
                self.queued[e] = true;
                self.pending.push(EdgeId(e as u32));
            }
        }
        while !self.pending.is_empty() {
            checkpoint(self.observer)?;
            std::mem::swap(&mut self.batch, &mut self.pending);
            self.assigned += self.batch.len() as u64;
            self.observer
                .on_phase_progress(Phase::Partition, self.assigned, m as u64);
            for &e in &self.batch {
                let e = e.index();
                self.band[e] = p;
                // Entry support: the value before this band's first
                // delta (the snapshot), or the current value if the
                // band never touched it.
                let entry = if self.snap_band[e] == stamp {
                    self.snap[e]
                } else {
                    self.supp[e]
                };
                job.add_member(e, entry);
            }
            self.kill_batch(stamp, &mut job);
            self.traverse_blooms();
            // Exact (unclamped) apply; edges crossing the threshold
            // join the next sub-round.
            for &te in &self.touched_edges {
                let e = te as usize;
                let d = std::mem::take(&mut self.delta[e]);
                if d > 0 && self.present[e] {
                    if self.snap_band[e] != stamp {
                        self.snap_band[e] = stamp;
                        self.snap[e] = self.supp[e];
                    }
                    debug_assert!(self.supp[e] >= d, "coarse support underflow");
                    self.supp[e] = self.supp[e].saturating_sub(d);
                    self.tally.record(self.histogram, EdgeId(te));
                    if self.supp[e] <= t_p && !self.queued[e] {
                        self.queued[e] = true;
                        self.pending.push(EdgeId(te));
                    }
                }
            }
            self.touched_edges.clear();
        }
        Ok(job)
    }

    /// Kills the sub-round's wedges into the band job, counts C(B) and
    /// settles twins with −(k−1) into the aggregation buffer
    /// (Algorithm 5 lines 6–13, deltas aggregated as in BiT-BU#).
    fn kill_batch(&mut self, stamp: u32, job: &mut BandJob) {
        let index = self.index;
        for &e in &self.batch {
            for &w in index.links(e) {
                if !self.alive[w as usize] {
                    continue;
                }
                self.alive[w as usize] = false;
                job.wedges.push(w);
                let b = index.wedge_bloom(WedgeId(w)).index();
                let k = self.k[b];
                if self.seen[b] != stamp {
                    self.seen[b] = stamp;
                    job.blooms.push((b as u32, k));
                }
                if self.c[b] == 0 {
                    self.touched_blooms.push(b as u32);
                }
                self.c[b] += 1;
                // A live wedge's twin is still present: its removal
                // would have killed the wedge.
                let twin = index.wedge_twin(WedgeId(w), e);
                debug_assert!(self.present[twin.index()]);
                if k >= 2 {
                    bump(
                        &mut self.delta,
                        &mut self.touched_edges,
                        twin,
                        u64::from(k - 1),
                    );
                }
            }
            self.present[e.index()] = false;
        }
        self.batch.clear();
    }

    /// One traversal per touched bloom, −C(B) per member of a surviving
    /// wedge (both members of a live wedge are present), then the bloom
    /// sizes drop by C(B).
    fn traverse_blooms(&mut self) {
        let index = self.index;
        for &b in &self.touched_blooms {
            let cb = std::mem::take(&mut self.c[b as usize]);
            for w in index.bloom_wedges(BloomId(b)) {
                if !self.alive[w.index()] {
                    continue;
                }
                let (e1, e2) = index.wedge_members(w);
                for other in [e1, e2] {
                    debug_assert!(self.present[other.index()]);
                    bump(
                        &mut self.delta,
                        &mut self.touched_edges,
                        other,
                        u64::from(cb),
                    );
                }
            }
            let k = &mut self.k[b as usize];
            *k = k.saturating_sub(cb);
        }
        self.touched_blooms.clear();
    }

    /// The top band: everything that survived every threshold, with its
    /// residual supports (already exact) and the wedges still alive.
    fn top_band(&mut self, last: u32) -> BandJob {
        let m = self.supp.len();
        let mut job = BandJob::new(last);
        for e in 0..m {
            if !self.queued[e] {
                self.band[e] = last;
                job.add_member(e, self.supp[e]);
            }
        }
        for (b, &k) in self.k.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let before = job.wedges.len();
            job.wedges.extend(
                self.index
                    .bloom_wedges(BloomId(b as u32))
                    .filter(|w| self.alive[w.index()])
                    .map(|w| w.0),
            );
            if job.wedges.len() > before {
                job.blooms.push((b as u32, k));
            }
        }
        self.assigned += job.members.len() as u64;
        self.observer
            .on_phase_progress(Phase::Partition, self.assigned, m as u64);
        job
    }
}

/// The hand-off from the coarse scan to the band workers: released band
/// jobs behind one lock, with a condition variable for idle workers.
/// Band data is published through the lock.
#[derive(Default)]
struct BandQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    /// Released bands no worker has taken yet.
    jobs: Vec<BandJob>,
    /// No band will be pushed any more.
    closed: bool,
    /// Some participant failed: nobody takes another band.
    failed: bool,
}

impl BandQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // A poisoned lock means a participant panicked; that panic
        // resurfaces at the scope's join. Every update under the lock is
        // one push, swap-remove or flag write, so the state is valid.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: BandJob) {
        self.lock().jobs.push(job);
        self.ready.notify_one();
    }

    /// Marks the queue closed — and failed, which stops every worker
    /// after its current band — and wakes every waiting worker.
    fn close(&self, failed: bool) {
        let mut state = self.lock();
        state.closed = true;
        state.failed |= failed;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks until a band is waiting (the largest estimated work goes
    /// first), or returns `None` once the queue is closed and drained or
    /// failed.
    fn pop(&self) -> Option<BandJob> {
        let mut state = self.lock();
        loop {
            if state.failed {
                return None;
            }
            let largest = (0..state.jobs.len())
                .max_by_key(|&i| (state.jobs[i].work, Reverse(state.jobs[i].band)));
            if let Some(i) = largest {
                return Some(state.jobs.swap_remove(i));
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Closes its queue as failed when dropped.
struct CloseOnDrop<'a>(&'a BandQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close(true);
    }
}

/// Read-only context shared by every band worker.
struct BandContext<'a> {
    index: &'a BeIndex,
    histogram: Option<&'a UpdateHistogram>,
    /// Edges settled so far, across workers (progress).
    popped: AtomicU64,
    total: u64,
    observer: &'a dyn EngineObserver,
}

/// One band's peel output: the `(edge, φ)` pairs it settled.
type BandPairs = Vec<(u32, u64)>;

/// One band worker: peels bands off the queue until it is drained, and
/// returns their `(edge, φ)` fragments with its update tally. A failed
/// band fails the queue, so the other workers stop too.
fn band_worker(ctx: &BandContext<'_>, queue: &BandQueue) -> Result<(Vec<BandPairs>, Tally)> {
    let mut scratch = BandScratch::new(ctx);
    let mut peeled = Vec::new();
    while let Some(job) = queue.pop() {
        match scratch.peel_band(job, ctx) {
            Ok(pairs) => peeled.push(pairs),
            Err(e) => {
                queue.close(true);
                return Err(e);
            }
        }
    }
    Ok((peeled, scratch.tally))
}

/// Partition-local scratch, allocated once per worker and reused across
/// the bands it takes. Per-edge and per-wedge state resets between
/// bands via the stamps [`live`] and [`gone`], never an O(m) clear.
struct BandScratch {
    /// Working supports; only the current band's entries are live.
    supp: Vec<u64>,
    /// Aggregated per-edge deltas for the current batch (take-reset).
    delta: Vec<u64>,
    /// `live(p)` while an edge is a member of band `p` still in its
    /// peel, `gone(p)` once peeled.
    edge_state: Vec<u32>,
    /// `live(p)` for band `p`'s wedges, `gone(p)` once killed.
    wedge_state: Vec<u32>,
    /// Bloom wedge counts as the band evolves them.
    k_local: Vec<u32>,
    /// Position of each of the band's blooms in its job's bloom list.
    slot: Vec<u32>,
    /// Per-bloom removed-wedge counts for the current batch (take-reset).
    c: Vec<u32>,
    /// The band's wedges grouped by bloom: slot `s` holds
    /// `by_bloom[bloom_start[s]..bloom_start[s + 1]]`.
    bloom_start: Vec<u32>,
    by_bloom: Vec<u32>,
    touched_blooms: Vec<u32>,
    touched_edges: Vec<u32>,
    batch: Vec<EdgeId>,
    tally: Tally,
}

/// Stamp of a band-`p` edge or wedge still in the band's peel.
#[inline]
fn live(p: u32) -> u32 {
    2 * p + 1
}

/// Stamp of a band-`p` edge or wedge the band's peel removed.
#[inline]
fn gone(p: u32) -> u32 {
    2 * p + 2
}

impl BandScratch {
    fn new(ctx: &BandContext<'_>) -> BandScratch {
        let m = ctx.index.num_edges() as usize;
        let nw = ctx.index.num_wedges() as usize;
        let nbl = ctx.index.num_blooms() as usize;
        BandScratch {
            supp: vec![0; m],
            delta: vec![0; m],
            edge_state: vec![0; m],
            wedge_state: vec![0; nw],
            k_local: vec![0; nbl],
            slot: vec![0; nbl],
            c: vec![0; nbl],
            bloom_start: Vec::new(),
            by_bloom: Vec::new(),
            touched_blooms: Vec::new(),
            touched_edges: Vec::new(),
            batch: Vec::new(),
            tally: Tally::new(ctx.histogram),
        }
    }

    /// The fixed per-worker footprint (the per-band grouping buffers
    /// come on top, bounded by the band's job).
    fn memory_bytes(index: &BeIndex) -> usize {
        let m = index.num_edges() as usize;
        m * (8 + 8 + 4) + index.num_wedges() as usize * 4 + index.num_blooms() as usize * 12
    }

    /// Groups the job's wedges by bloom (a counting sort over the job's
    /// bloom list), marks them `live(p)` and seeds each bloom's `k`.
    fn group_wedges(&mut self, job: &BandJob, index: &BeIndex) {
        let n = job.blooms.len();
        for (s, &(b, k)) in job.blooms.iter().enumerate() {
            self.slot[b as usize] = s as u32;
            self.k_local[b as usize] = k;
        }
        self.bloom_start.clear();
        self.bloom_start.resize(n + 1, 0);
        let stamp = live(job.band);
        for &w in &job.wedges {
            self.wedge_state[w as usize] = stamp;
            let s = self.slot[index.wedge_bloom(WedgeId(w)).index()];
            self.bloom_start[s as usize] += 1;
        }
        // Running ends, then a backwards fill turns each into its slot's
        // start.
        let mut end = 0;
        for s in 0..n {
            end += self.bloom_start[s];
            self.bloom_start[s] = end;
        }
        self.bloom_start[n] = end;
        self.by_bloom.clear();
        self.by_bloom.resize(job.wedges.len(), 0);
        for &w in &job.wedges {
            let s = self.slot[index.wedge_bloom(WedgeId(w)).index()] as usize;
            self.bloom_start[s] -= 1;
            self.by_bloom[self.bloom_start[s] as usize] = w;
        }
    }

    /// Peels one band to completion: a full BiT-BU#-style batch peel
    /// restricted to the band's edges, seeded from their entry supports.
    /// Returns `(edge, φ)` pairs for every edge of the band.
    fn peel_band(&mut self, mut job: BandJob, ctx: &BandContext<'_>) -> Result<BandPairs> {
        let (live, gone) = (live(job.band), gone(job.band));
        for (&e, &s) in job.members.iter().zip(&job.entry) {
            self.supp[e as usize] = s;
            self.edge_state[e as usize] = live;
        }
        job.members.sort_unstable();
        let mut queue = BucketQueue::from_members(&self.supp, &job.members);
        self.group_wedges(&job, ctx.index);
        let mut pairs: BandPairs = Vec::with_capacity(job.members.len());

        while let Some(level) = queue.pop_level(&self.supp, &mut self.batch) {
            checkpoint(ctx.observer)?;
            let done = ctx
                .popped
                .fetch_add(self.batch.len() as u64, Ordering::Relaxed) // Relaxed: advisory progress counter; no memory is published through it
                + self.batch.len() as u64;
            ctx.observer
                .on_phase_progress(Phase::Peeling, done, ctx.total);
            // Phase 1: kill this batch's wedges (the band's own links),
            // count C(B), settle twins with −(k−1), `k` taken at batch
            // start. Only the band's own edges are tracked: higher bands
            // are frozen context, lower bands are gone.
            for &e in &self.batch {
                pairs.push((e.0, level));
                for &w in ctx.index.links(e) {
                    if self.wedge_state[w as usize] != live {
                        continue;
                    }
                    self.wedge_state[w as usize] = gone;
                    let b = ctx.index.wedge_bloom(WedgeId(w)).index();
                    let k = self.k_local[b];
                    if self.c[b] == 0 {
                        self.touched_blooms.push(b as u32);
                    }
                    self.c[b] += 1;
                    let twin = ctx.index.wedge_twin(WedgeId(w), e);
                    if k >= 2 && self.edge_state[twin.index()] == live {
                        bump(
                            &mut self.delta,
                            &mut self.touched_edges,
                            twin,
                            u64::from(k - 1),
                        );
                    }
                }
                self.edge_state[e.index()] = gone;
            }
            // Phase 2: one traversal per touched bloom over the band's
            // own wedges, −C(B) per surviving tracked member. Wedges of
            // higher bands hold no tracked edge, so they are never
            // visited.
            for &b in &self.touched_blooms {
                let b = b as usize;
                let cb = std::mem::take(&mut self.c[b]);
                let s = self.slot[b] as usize;
                let own = self.bloom_start[s] as usize..self.bloom_start[s + 1] as usize;
                for &w in &self.by_bloom[own] {
                    if self.wedge_state[w as usize] != live {
                        continue;
                    }
                    let (e1, e2) = ctx.index.wedge_members(WedgeId(w));
                    for other in [e1, e2] {
                        if self.edge_state[other.index()] == live {
                            bump(
                                &mut self.delta,
                                &mut self.touched_edges,
                                other,
                                u64::from(cb),
                            );
                        }
                    }
                }
                self.k_local[b] = self.k_local[b].saturating_sub(cb);
            }
            self.touched_blooms.clear();
            // Phase 3: one merged clamped write per affected edge.
            for &te in &self.touched_edges {
                let e = te as usize;
                let d = std::mem::take(&mut self.delta[e]);
                if d > 0 && self.edge_state[e] == live && self.supp[e] > level {
                    let old = self.supp[e];
                    let new = level.max(old.saturating_sub(d));
                    self.supp[e] = new;
                    queue.decrease(EdgeId(te), old, new);
                    self.tally.record(ctx.histogram, EdgeId(te));
                }
            }
            self.touched_edges.clear();
        }
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{decompose, Algorithm};
    use crate::verify::{reference_decomposition, validate_decomposition};
    use bigraph::progress::NoopObserver;

    /// BiT-BU++2P without the band audit.
    fn two_phase(g: &BipartiteGraph, threads: usize, num_bands: usize) -> (Decomposition, Metrics) {
        let (d, m, _) =
            bit_bu_pp_2p_with_outcome(g, Threads(threads), num_bands, &NoopObserver).unwrap();
        (d, m)
    }

    #[test]
    fn matches_sequential_across_threads_and_bands() {
        for seed in 0..5 {
            let g = datagen::random::uniform(13, 15, 70, seed);
            let (seq, _) = decompose(&g, Algorithm::BuPlusPlus);
            for threads in [1, 2, 4, 8] {
                for bands in [1, 2, 3, 16] {
                    let (d, m) = two_phase(&g, threads, bands);
                    assert_eq!(d, seq, "seed {seed} threads {threads} bands {bands}");
                    assert!(m.bands >= 1 && m.bands <= bands.max(1));
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_skewed_graphs() {
        for seed in 0..3 {
            let g = datagen::powerlaw::chung_lu(80, 80, 1_200, 1.9, 1.9, seed);
            let expect = reference_decomposition(&g);
            let (d, _) = two_phase(&g, 4, DEFAULT_NUM_BANDS);
            assert_eq!(d, expect, "seed {seed}");
            validate_decomposition(&g, &d).unwrap();
        }
    }

    #[test]
    fn update_count_is_thread_independent_and_below_hybrid() {
        let g = datagen::powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 8);
        let (d_h, m_h) = decompose(&g, Algorithm::BuHybrid);
        let mut counts = Vec::new();
        for threads in [1, 2, 4, 8] {
            let (d, m) = two_phase(&g, threads, DEFAULT_NUM_BANDS);
            assert_eq!(d, d_h);
            counts.push(m.support_updates);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        // Untracked cross-band writes are the point of the partition:
        // strictly less write traffic than the aggregated sequential
        // engine on a skewed graph.
        assert!(
            counts[0] < m_h.support_updates,
            "{} >= {}",
            counts[0],
            m_h.support_updates
        );
    }

    #[test]
    fn outcome_respects_band_invariant_with_empty_stitch_log() {
        for seed in 0..4 {
            let g = datagen::powerlaw::chung_lu(60, 60, 700, 2.0, 2.0, seed);
            let (d, _, outcome) =
                bit_bu_pp_2p_with_outcome(&g, Threads(3), 8, &NoopObserver).unwrap();
            assert!(outcome.stitch.migrations.is_empty(), "seed {seed}");
            for e in 0..g.num_edges() as usize {
                let p = outcome.band_of_edge[e];
                assert!(
                    outcome.in_band(p, d.phi[e]),
                    "seed {seed} edge {e}: φ={} outside band {p} {:?}",
                    d.phi[e],
                    outcome.band_range(p)
                );
            }
        }
    }

    #[test]
    fn single_band_and_empty_graph() {
        let g = bigraph::GraphBuilder::new().build().unwrap();
        let (d, _) = two_phase(&g, 4, DEFAULT_NUM_BANDS);
        assert_eq!(d.phi.len(), 0);

        let g = datagen::random::uniform(10, 10, 45, 7);
        let (seq, _) = decompose(&g, Algorithm::BuPlusPlus);
        let (one_band, m) = two_phase(&g, 2, 1);
        assert_eq!(one_band, seq);
        assert_eq!(m.bands, 1);
    }

    #[test]
    fn band_bounds_are_strictly_ascending_and_below_max() {
        let supports = vec![0u64, 0, 1, 1, 2, 3, 5, 5, 5, 9, 40];
        let bounds = band_bounds(&supports, 4);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert!(bounds.iter().all(|&b| b < 40), "{bounds:?}");
        assert!(band_bounds(&supports, 1).is_empty());
        assert!(band_bounds(&[], 8).is_empty());
        assert!(band_bounds(&[7, 7, 7], 8).is_empty());
    }

    #[test]
    fn cancellation_unwinds_from_band_workers() {
        use std::sync::atomic::AtomicU64 as Counter;
        struct CancelAfter {
            polls: Counter,
            after: u64,
        }
        impl EngineObserver for CancelAfter {
            fn is_cancelled(&self) -> bool {
                self.polls.fetch_add(1, Ordering::Relaxed) >= self.after
            }
        }
        let g = datagen::powerlaw::chung_lu(60, 60, 700, 2.0, 2.0, 1);
        // Sweep the cancellation point from "immediately" to "deep in
        // phase 2" — every stop must surface Err(Cancelled).
        let mut cancelled = 0;
        for after in [0, 1, 5, 20, 80, 200] {
            let obs = CancelAfter {
                polls: Counter::new(0),
                after,
            };
            match bit_bu_pp_2p_with_outcome(&g, Threads(4), 8, &obs) {
                Err(bigraph::Error::Cancelled) => cancelled += 1,
                Err(e) => panic!("unexpected error {e}"),
                Ok(_) => {}
            }
        }
        assert!(cancelled >= 4, "only {cancelled} runs cancelled");
    }
}
