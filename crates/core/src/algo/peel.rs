//! The one BE-Index peel kernel behind BiT-BU, BiT-BU+, BiT-BU++, BiT-BU#
//! and BiT-BU++/P, also driven by BiT-PC and [`k_bitruss`](crate::k_bitruss).
//!
//! The paper's BU → BU+ → BU++ ablation (Alg. 4, Alg. 5, §V-B) is two
//! independent switches on one bottom-up peel, captured by [`Plan`]:
//!
//! | Plan | `bloom_batch` | `aggregate_writes` | threads |
//! |------|---------------|--------------------|---------|
//! | BiT-BU   | –   | –   | 1 |
//! | BiT-BU+  | –   | yes | 1 |
//! | BiT-BU++ | yes | –   | 1 |
//! | BiT-BU#  | yes | yes | 1 |
//! | BiT-BU++/P | yes | yes | > 1 |
//!
//! * **Neither switch** (BiT-BU) pops one minimum-support edge at a time
//!   and removes it with [`BeIndex::remove_edge`].
//! * **Batching** pops every edge at the minimum level as one set `S`
//!   (Lemma 9: removing an edge never changes φ of another edge at the
//!   same level). Each batch runs up to three phases:
//!   1. kill the batch's wedges and settle twins with `−(k−1)`, `k` taken
//!      at batch start (Alg. 5 lines 6–13);
//!   2. traverse the affected blooms, each surviving member edge losing
//!      one butterfly per removed wedge pair (lines 14–18);
//!   3. with `aggregate_writes`, write each affected edge once.
//! * **`bloom_batch`** traverses each touched bloom once per batch with
//!   its count `C(B)` of removed wedge pairs; without it (BiT-BU+) every
//!   removed wedge traverses its bloom.
//! * **`aggregate_writes`** accumulates the deltas per affected edge and
//!   writes each edge once in phase 3; without it (BiT-BU++) every
//!   (bloom, edge) pair writes directly.
//! * **`threads > 1`** fans phase 2 out across workers once a batch's
//!   traversal is heavy enough ([`accumulate_bloom_deltas`] into
//!   thread-local buffers, merged before phase 3). It needs both switches.
//!
//! Every write clamps at the batch level `MBS` (the `max(MBS, ·)` rule),
//! and clamped decrements compose — `max(f, max(f, s−a)−b) = max(f, s−a−b)`
//! — so all plans produce φ identical to sequential BiT-BU. They differ in
//! `support_updates`, which is what the paper's Figures 7, 10 and 13
//! compare.
//!
//! The plan is resolved once per peel into a const-generic batch loop,
//! so no per-wedge branch or dynamic dispatch depends on it. Callers
//! supply a [`Settle`] hook that fixes φ for each popped batch; it maps
//! index edge ids to global ids for metrics and may stop the peel early.

use std::ops::ControlFlow;
use std::time::Instant;

use beindex::{BeIndex, BloomId, UpdateSink, WedgeId};
use bigraph::progress::{checkpoint, EngineObserver, Phase, CHECK_INTERVAL};
use bigraph::{EdgeId, Result};

use crate::bucket_queue::BucketQueue;
use crate::metrics::Metrics;

/// Minimum phase-2 work (wedge slots across the batch's touched blooms)
/// before the bloom traversal is fanned out to worker threads. Below it
/// the per-batch `thread::scope` spawn overhead outweighs the traversal.
pub(crate) const PAR_BATCH_MIN_WORK: usize = 4096;

/// How the kernel peels: the two switches of the §V-B ablation plus the
/// phase-2 worker count. See the [module docs](self) for which algorithm
/// sets which switch.
#[derive(Clone, Copy)]
pub(crate) struct Plan {
    /// Traverse each touched bloom once per batch (BiT-BU++, Alg. 5).
    pub bloom_batch: bool,
    /// Write each affected edge once per batch (BiT-BU+).
    pub aggregate_writes: bool,
    /// Phase-2 workers; more than one needs both switches.
    pub threads: usize,
    /// Phase-2 work below which a batch is traversed inline even with
    /// several workers ([`PAR_BATCH_MIN_WORK`]; tests force 0).
    pub min_fanout_work: usize,
}

impl Plan {
    /// BiT-BU (Algorithm 4): per-edge removal.
    pub(crate) const BU: Plan = Plan::sequential(false, false);
    /// BiT-BU+: batches with aggregated writes.
    pub(crate) const BU_PLUS: Plan = Plan::sequential(false, true);
    /// BiT-BU++ (Algorithm 5): batches with batch bloom traversal.
    pub(crate) const BU_PP: Plan = Plan::sequential(true, false);
    /// BiT-BU#: both switches.
    pub(crate) const BU_HYBRID: Plan = Plan::sequential(true, true);

    const fn sequential(bloom_batch: bool, aggregate_writes: bool) -> Plan {
        Plan {
            bloom_batch,
            aggregate_writes,
            threads: 1,
            min_fanout_work: PAR_BATCH_MIN_WORK,
        }
    }

    /// BiT-BU++/P: both switches, phase 2 fanned out across `threads`.
    pub(crate) const fn parallel(threads: usize) -> Plan {
        Plan {
            threads,
            ..Plan::BU_HYBRID
        }
    }
}

/// Per-batch hook of the kernel: fixes φ for the edges popped at one
/// level and names the global edge each index edge stands for.
pub(crate) trait Settle {
    /// Global id of index edge `e`, for update attribution (identity
    /// unless the index covers a subgraph).
    #[inline]
    fn global(&self, e: EdgeId) -> EdgeId {
        e
    }

    /// Settles `batch`, popped at `level`, before it peels.
    /// `ControlFlow::Break` ends the peel with `batch` left in place.
    fn settle(&mut self, level: u64, batch: &[EdgeId]) -> ControlFlow<()>;
}

/// Peels `index` bottom-up from supports `supp` under `plan`: one peeling
/// phase for `observer`, whose progress reports `done_before` plus the
/// edges popped so far, out of `total`. Every edge in the index enters
/// the queue; edges outside it (BiT-PC's assigned edges) never do.
/// Peeling time and support updates accumulate into `metrics`.
///
/// # Errors
///
/// [`bigraph::Error::Cancelled`] when the observer cancels — polled per
/// batch, or every [`CHECK_INTERVAL`] removals without batching.
#[allow(clippy::too_many_arguments)]
pub(crate) fn peel<S: Settle>(
    index: &mut BeIndex,
    supp: &mut [u64],
    plan: Plan,
    done_before: u64,
    total: u64,
    metrics: &mut Metrics,
    observer: &dyn EngineObserver,
    settle: &mut S,
) -> Result<()> {
    let start = Instant::now();
    observer.on_phase_start(Phase::Peeling, total);
    let queue = BucketQueue::new(supp, |e| index.in_index(e));
    let mut k = Kernel {
        index,
        supp,
        queue,
        metrics,
        settle,
        plan,
        observer,
        done: done_before,
        total,
    };
    let result = match (plan.bloom_batch, plan.aggregate_writes) {
        (false, false) => k.per_edge(),
        (false, true) => k.batches::<false, true>(),
        (true, false) => k.batches::<true, false>(),
        (true, true) => k.batches::<true, true>(),
    };
    k.metrics.peeling_time += start.elapsed();
    result?;
    observer.on_phase_end(Phase::Peeling);
    Ok(())
}

/// The state one peel threads through its batches.
struct Kernel<'a, S> {
    index: &'a mut BeIndex,
    supp: &'a mut [u64],
    queue: BucketQueue,
    metrics: &'a mut Metrics,
    settle: &'a mut S,
    plan: Plan,
    observer: &'a dyn EngineObserver,
    /// Progress so far out of `total`, as reported to the observer.
    done: u64,
    total: u64,
}

/// Update sink of per-edge removal: keeps the queue and metrics in sync.
struct PeelSink<'a, S> {
    queue: &'a mut BucketQueue,
    metrics: &'a mut Metrics,
    settle: &'a S,
}

impl<S: Settle> UpdateSink for PeelSink<'_, S> {
    #[inline]
    fn on_support_update(&mut self, e: EdgeId, old: u64, new: u64) {
        self.queue.decrease(e, old, new);
        self.metrics.record_update(self.settle.global(e));
    }
}

/// Reusable per-batch buffers of the batched plans.
struct Scratch {
    /// `c[b]` = wedge pairs the batch removed from bloom `b` (`C(B)`).
    c: Vec<u32>,
    touched_blooms: Vec<u32>,
    /// Aggregated per-edge deltas and the edges holding a nonzero one.
    delta: Vec<u64>,
    touched_edges: Vec<u32>,
    /// Per-worker sparse buffers for the fanned-out phase 2, allocated
    /// on the first batch heavy enough to need them.
    workers: Vec<(Vec<u64>, Vec<u32>)>,
}

impl<S: Settle> Kernel<'_, S> {
    /// Polls for cancellation and reports `popped` more edges.
    fn tick(&mut self, popped: u64) -> Result<()> {
        checkpoint(self.observer)?;
        self.done += popped;
        self.observer
            .on_phase_progress(Phase::Peeling, self.done, self.total);
        Ok(())
    }

    /// BiT-BU: pop one edge at a time, remove it through the index.
    fn per_edge(&mut self) -> Result<()> {
        let mut popped = 0u64;
        while let Some((level, e)) = self.queue.pop_min(self.supp) {
            popped += 1;
            if popped.is_multiple_of(CHECK_INTERVAL) {
                self.tick(CHECK_INTERVAL)?;
            }
            if self.settle.settle(level, &[e]).is_break() {
                break;
            }
            let mut sink = PeelSink {
                queue: &mut self.queue,
                metrics: self.metrics,
                settle: &*self.settle,
            };
            self.index.remove_edge(e, self.supp, level, &mut sink);
        }
        Ok(())
    }

    /// One clamped write of `−by` to `e` at peel level `level`.
    #[inline]
    fn write(&mut self, e: EdgeId, by: u64, level: u64) {
        let old = self.supp[e.index()];
        if old > level {
            let new = level.max(old.saturating_sub(by));
            self.supp[e.index()] = new;
            self.queue.decrease(e, old, new);
            self.metrics.record_update(self.settle.global(e));
        }
    }

    /// The batched plans, monomorphized per switch setting.
    fn batches<const BLOOM_BATCH: bool, const AGGREGATE: bool>(&mut self) -> Result<()> {
        let m = self.supp.len();
        let mut s = Scratch {
            c: if BLOOM_BATCH {
                vec![0; self.index.num_blooms() as usize]
            } else {
                Vec::new()
            },
            touched_blooms: Vec::new(),
            delta: if AGGREGATE { vec![0; m] } else { Vec::new() },
            touched_edges: Vec::new(),
            workers: Vec::new(),
        };
        let mut batch: Vec<EdgeId> = Vec::new();
        while let Some(level) = self.queue.pop_level(self.supp, &mut batch) {
            self.tick(batch.len() as u64)?;
            if self.settle.settle(level, &batch).is_break() {
                break;
            }
            self.remove_batch::<BLOOM_BATCH, AGGREGATE>(&mut s, &batch, level);
            if BLOOM_BATCH {
                if AGGREGATE {
                    self.accumulate_blooms(&mut s);
                } else {
                    self.write_blooms(&mut s, level);
                }
            }
            if AGGREGATE {
                for i in 0..s.touched_edges.len() {
                    let e = EdgeId(s.touched_edges[i]);
                    let d = std::mem::take(&mut s.delta[e.index()]);
                    if d > 0 && self.index.in_index(e) {
                        self.write(e, d, level);
                    }
                }
                s.touched_edges.clear();
            }
        }
        Ok(())
    }

    /// Phase 1: kill the batch's wedges and settle their twins; without
    /// `BLOOM_BATCH` also traverse each wedge's bloom right away.
    #[inline]
    fn remove_batch<const BLOOM_BATCH: bool, const AGGREGATE: bool>(
        &mut self,
        s: &mut Scratch,
        batch: &[EdgeId],
        level: u64,
    ) {
        for &e in batch {
            for li in 0..self.index.links(e).len() {
                let w0 = WedgeId(self.index.links(e)[li]);
                if !self.index.wedge_alive(w0) {
                    continue; // twin also in S and processed first
                }
                let b = self.index.wedge_bloom(w0);
                let k = self.index.bloom_k(b) as u64;
                let twin = self.index.wedge_twin(w0, e);
                self.index.kill_wedge(w0);
                if BLOOM_BATCH {
                    if s.c[b.index()] == 0 {
                        s.touched_blooms.push(b.0);
                    }
                    s.c[b.index()] += 1;
                } else {
                    self.index.sub_bloom_k(b, 1);
                }
                if k >= 2 && self.index.in_index(twin) {
                    if AGGREGATE {
                        bump(&mut s.delta, &mut s.touched_edges, twin, k - 1);
                    } else {
                        self.write(twin, k - 1, level);
                    }
                }
                if !BLOOM_BATCH {
                    for w in self.index.bloom_wedges(b) {
                        if !self.index.wedge_alive(w) {
                            continue;
                        }
                        let (e1, e2) = self.index.wedge_members(w);
                        for other in [e1, e2] {
                            if self.index.in_index(other) {
                                if AGGREGATE {
                                    bump(&mut s.delta, &mut s.touched_edges, other, 1);
                                } else {
                                    self.write(other, 1, level);
                                }
                            }
                        }
                    }
                }
            }
            self.index.remove_edge_links(e);
        }
    }

    /// Phase 2 of BiT-BU++: one traversal per touched bloom, each
    /// surviving member edge written `−C(B)` directly.
    fn write_blooms(&mut self, s: &mut Scratch, level: u64) {
        for i in 0..s.touched_blooms.len() {
            let b = BloomId(s.touched_blooms[i]);
            let c = std::mem::take(&mut s.c[b.index()]);
            self.index.sub_bloom_k(b, c);
            for w in self.index.bloom_wedges(b) {
                if !self.index.wedge_alive(w) {
                    continue;
                }
                let (e1, e2) = self.index.wedge_members(w);
                for other in [e1, e2] {
                    if self.index.in_index(other) {
                        self.write(other, c as u64, level);
                    }
                }
            }
        }
        s.touched_blooms.clear();
    }

    /// Phase 2 with aggregated writes: accumulate `−C(B)` per surviving
    /// member edge, fanned out across workers for heavy batches, then
    /// settle the bloom sizes.
    fn accumulate_blooms(&mut self, s: &mut Scratch) {
        let t = self.plan.threads;
        let fan_out = t > 1 && {
            let work: usize = s
                .touched_blooms
                .iter()
                .map(|&b| self.index.bloom_stored_wedges(BloomId(b)) as usize)
                .sum();
            work >= self.plan.min_fanout_work && work > 0
        };
        if fan_out {
            let m = self.supp.len();
            if s.workers.is_empty() {
                s.workers = (0..t).map(|_| (vec![0u64; m], Vec::new())).collect();
                self.metrics.scratch_bytes = t * m * std::mem::size_of::<u64>();
            }
            std::thread::scope(|scope| {
                let index = &*self.index;
                let (c, blooms) = (&s.c, &s.touched_blooms);
                for (wi, (w_delta, w_touched)) in s.workers.iter_mut().enumerate() {
                    scope.spawn(move || {
                        accumulate_bloom_deltas(index, c, blooms, wi, t, w_delta, w_touched);
                    });
                }
            });
            // Addition commutes, so merge order cannot affect results.
            for (w_delta, w_touched) in &mut s.workers {
                for &e in w_touched.iter() {
                    let d = std::mem::take(&mut w_delta[e as usize]);
                    bump(&mut s.delta, &mut s.touched_edges, EdgeId(e), d);
                }
                w_touched.clear();
            }
        } else {
            accumulate_bloom_deltas(
                self.index,
                &s.c,
                &s.touched_blooms,
                0,
                1,
                &mut s.delta,
                &mut s.touched_edges,
            );
        }
        for &b in &s.touched_blooms {
            let cb = std::mem::take(&mut s.c[b as usize]);
            self.index.sub_bloom_k(BloomId(b), cb);
        }
        s.touched_blooms.clear();
    }
}

/// Adds `by` to `e`'s aggregated delta, listing `e` on its first touch.
#[inline]
pub(crate) fn bump(delta: &mut [u64], touched: &mut Vec<u32>, e: EdgeId, by: u64) {
    if delta[e.index()] == 0 {
        touched.push(e.0);
    }
    delta[e.index()] += by;
}

/// Phase 2 of one batch (Algorithm 5 lines 14–18) for the blooms at
/// positions `start, start + stride, …` of `blooms`: every surviving
/// member edge of bloom `B` accumulates a `−C(B)` delta into the sparse
/// `delta`/`touched` buffer. Read-only on the index, so the sequential
/// path (`start = 0, stride = 1`, global buffer) and each parallel worker
/// (`start = worker, stride = threads`, thread-local buffer) share it —
/// one body, one set of filter rules.
fn accumulate_bloom_deltas(
    index: &BeIndex,
    c: &[u32],
    blooms: &[u32],
    start: usize,
    stride: usize,
    delta: &mut [u64],
    touched: &mut Vec<u32>,
) {
    let mut bi = start;
    while bi < blooms.len() {
        let b = BloomId(blooms[bi]);
        bi += stride;
        let cb = c[b.index()] as u64;
        for w in index.bloom_wedges(b) {
            if !index.wedge_alive(w) {
                continue;
            }
            let (e1, e2) = index.wedge_members(w);
            for other in [e1, e2] {
                if index.in_index(other) {
                    if delta[other.index()] == 0 {
                        touched.push(other.0);
                    }
                    delta[other.index()] += cb;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bu::{run, Source};
    use crate::decomposition::Decomposition;
    use crate::verify::{reference_decomposition, validate_decomposition};
    use bigraph::progress::NoopObserver;
    use bigraph::BipartiteGraph;

    const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

    fn sequential(g: &BipartiteGraph, plan: Plan) -> (Decomposition, Metrics) {
        run(g, plan, Source::Sequential, None, &NoopObserver).unwrap()
    }

    /// BiT-BU++/P with every batch fanned out, however light, so small
    /// graphs exercise the parallel phase 2 too.
    fn forced_fan_out(g: &BipartiteGraph, threads: usize) -> (Decomposition, Metrics) {
        let plan = Plan {
            min_fanout_work: 0,
            ..Plan::parallel(threads)
        };
        run(g, plan, Source::Parallel, None, &NoopObserver).unwrap()
    }

    #[test]
    fn forced_fan_out_is_bit_identical_on_random_graphs() {
        for seed in 0..24u64 {
            let n = 2 + (seed % 15) as u32;
            let g = datagen::random::uniform(n, 17 - n, 3 * seed as usize + 10, seed);
            let (seq, _) = sequential(&g, Plan::BU_PP);
            for t in THREAD_COUNTS {
                let (par, m) = forced_fan_out(&g, t);
                assert_eq!(par, seq, "seed {seed} threads {t}");
                assert_eq!(m.peeling_threads, t);
            }
            validate_decomposition(&g, &seq).unwrap();
        }
    }

    #[test]
    fn forced_fan_out_matches_reference_on_skewed_graphs() {
        for seed in 0..3 {
            let g = datagen::powerlaw::chung_lu(80, 80, 1_200, 1.9, 1.9, seed);
            let expect = reference_decomposition(&g);
            let (par, m) = forced_fan_out(&g, 4);
            assert_eq!(par, expect, "seed {seed}");
            assert!(m.scratch_bytes > 0, "phase 2 never fanned out");
            validate_decomposition(&g, &par).unwrap();
        }
    }

    #[test]
    fn forced_fan_out_update_counts_are_thread_independent_and_match_hybrid() {
        // The aggregated-write semantics are exactly BiT-BU#'s, so the
        // update count must match it at every thread count.
        let graphs = (0..12u64).map(|seed| {
            let n = 4 + (seed % 25) as u32;
            let g = datagen::powerlaw::chung_lu(n, n, 15 * seed as usize + 40, 1.9, 1.9, seed);
            (seed, g)
        });
        let skewed = datagen::powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 8);
        for (seed, g) in graphs.chain([(8, skewed)]) {
            let (d_h, m_h) = sequential(&g, Plan::BU_HYBRID);
            for t in THREAD_COUNTS {
                let (d, m) = forced_fan_out(&g, t);
                assert_eq!(d, d_h, "seed {seed} threads {t}");
                assert_eq!(
                    m.support_updates, m_h.support_updates,
                    "seed {seed} threads {t}"
                );
            }
        }
    }
}
