//! [`BitrussEngine`] — the typed session API owning the full lifecycle
//! **decompose → hierarchy → query → snapshot**.
//!
//! A production query server needs decomposition, hierarchy queries
//! and persistence against one graph, without re-doing work: decompose
//! once, build the hierarchy index once, answer many queries, persist a
//! snapshot, resume from it later. The engine is that owning entry
//! point, and the one public way to run a decomposition:
//!
//! ```
//! use bigraph::GraphBuilder;
//! use bitruss_core::engine::BitrussEngine;
//! use bitruss_core::Algorithm;
//!
//! let g = GraphBuilder::new()
//!     .add_edges([
//!         (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
//!         (2, 2), (2, 3), (3, 1), (3, 2), (3, 4),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! // Configure → run → serve.
//! let session = BitrussEngine::builder()
//!     .algorithm(Algorithm::BuPlusPlus)
//!     .build(g)
//!     .unwrap();
//! assert_eq!(session.max_bitruss(), 2);
//! assert_eq!(session.k_bitruss_count(2).unwrap(), 6);
//!
//! // Persist the session and resume it elsewhere.
//! let mut bytes = Vec::new();
//! session.save_snapshot_to(&mut bytes).unwrap();
//! let resumed = BitrussEngine::from_snapshot_reader(&bytes[..]).unwrap();
//! assert_eq!(resumed.phi(), session.phi());
//! assert_eq!(resumed.k_bitruss_count(2).unwrap(), 6);
//! ```
//!
//! # Observability and cancellation
//!
//! [`EngineBuilder::progress`] attaches an [`EngineObserver`] that is
//! threaded through counting, BE-Index construction, peeling and the
//! hierarchy build: it receives phase boundaries and coarse progress
//! ticks, and may request cooperative cancellation at any poll, which
//! surfaces as [`Error::Cancelled`] instead of aborting the process.
//!
//! # Generations and cheap sharing
//!
//! A session's state — graph, φ, and the lazily-built hierarchy — is
//! held behind [`Arc`]s internally, so
//! [`BitrussEngine::clone_shared`] produces an independent, immutable
//! handle to the *same* state in `O(1)`. Serving layers use this to
//! publish each committed generation to concurrent readers while a
//! single writer advances its own session with
//! [`BitrussEngine::replace_state`] (which installs fresh state and
//! leaves every previously shared clone untouched).
//!
//! # One-shot wrappers
//!
//! [`decompose`](crate::decompose) and
//! [`decompose_observed`](crate::decompose_observed) run the same
//! dispatch the engine uses, so results are bit-identical; pruning and
//! histograms are engine options ([`EngineBuilder::pruned`],
//! [`EngineBuilder::histogram_bounds`]).

use std::fmt;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use bigraph::progress::checkpoint;
use bigraph::vfs::{StdVfs, Vfs};
use bigraph::{BipartiteGraph, EdgeId, Error, Result, VertexId};
use bitruss_storage::MemoryReport;

pub use bigraph::progress::{EngineObserver, NoopObserver, Phase};

use crate::algo::bu::Source;
use crate::algo::peel::Plan;
use crate::algo::{self, Algorithm, Threads};
use crate::decomposition::{Community, Decomposition};
use crate::hierarchy::BitrussHierarchy;
use crate::metrics::{Metrics, UpdateHistogram};
use crate::persist::binary::{
    read_snapshot, read_snapshot_file, write_snapshot, write_snapshot_file,
};

/// When the session builds its [`BitrussHierarchy`] index.
///
/// Marked `#[non_exhaustive]`: future modes (e.g. persisted-only) may be
/// added without a semver break.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HierarchyMode {
    /// Build on the first query that needs it, then cache (the default).
    #[default]
    Lazy,
    /// Build eagerly inside [`EngineBuilder::build`], so the first query
    /// pays no latency spike and cancellation covers the index build too.
    Eager,
}

/// Typed builder for a [`BitrussEngine`] session.
///
/// Obtained from [`BitrussEngine::builder`]; every option has a sensible
/// default (BiT-BU++, no pruning, lazy hierarchy, no observer).
pub struct EngineBuilder {
    algorithm: Algorithm,
    threads: Option<Threads>,
    pruned: bool,
    hierarchy_mode: HierarchyMode,
    histogram_bounds: Option<Vec<u64>>,
    observer: Option<Arc<dyn EngineObserver + Send + Sync>>,
    memory_budget: Option<usize>,
    scratch: Option<(Arc<dyn Vfs>, PathBuf)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            algorithm: Algorithm::BuPlusPlus,
            threads: None,
            pruned: false,
            hierarchy_mode: HierarchyMode::Lazy,
            histogram_bounds: None,
            observer: None,
            memory_budget: None,
            scratch: None,
        }
    }
}

impl EngineBuilder {
    /// Selects the decomposition algorithm (default:
    /// [`Algorithm::BuPlusPlus`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Configures worker threads. Mirrors the CLI's `--threads` rule: it
    /// upgrades the default [`Algorithm::BuPlusPlus`] to the parallel
    /// engine (bit-identical results) or overrides the thread count of an
    /// explicit [`Algorithm::BuPlusPlusPar`] or
    /// [`Algorithm::BuPlusPlusTwoPhase`]; combining it with any other
    /// algorithm is rejected by [`EngineBuilder::build`].
    ///
    /// ```
    /// use bigraph::GraphBuilder;
    /// use bitruss_core::{Algorithm, BitrussEngine, Threads};
    ///
    /// let g = GraphBuilder::new()
    ///     .add_edges([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    ///     .build()
    ///     .unwrap();
    /// // Select the two-phase partition engine with 2 workers; φ is
    /// // bit-identical to the sequential BU++ run.
    /// let session = BitrussEngine::builder()
    ///     .algorithm(Algorithm::two_phase_auto())
    ///     .threads(Threads(2))
    ///     .build(g)
    ///     .unwrap();
    /// assert_eq!(session.max_bitruss(), 2);
    /// assert!(matches!(
    ///     session.algorithm(),
    ///     Some(Algorithm::BuPlusPlusTwoPhase { threads: Threads(2) })
    /// ));
    /// ```
    pub fn threads(mut self, threads: impl Into<Threads>) -> Self {
        self.threads = Some(threads.into());
        self
    }

    /// Enables (2,2)-core pre-pruning: edges outside the core have
    /// `φ = 0` and are dropped before counting and peeling.
    pub fn pruned(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }

    /// Chooses when the hierarchy index is built (default: lazily).
    pub fn hierarchy(mut self, mode: HierarchyMode) -> Self {
        self.hierarchy_mode = mode;
        self
    }

    /// Enables the per-original-support update histogram (Figure 7
    /// instrumentation) with the given ascending bucket bounds. Every
    /// algorithm that peels a BE-Index honours it — BiT-BU, BiT-BU+,
    /// BiT-BU++, BiT-BU#, BiT-BU++/P, BiT-BU++2P (coarse scan and band
    /// peels), BiT-PC and the budgeted run; the BiT-BS variants ignore
    /// it.
    /// [`EngineBuilder::build`] rejects bounds that are not strictly
    /// ascending or number more than
    /// [`MAX_HISTOGRAM_BOUNDS`](crate::metrics::MAX_HISTOGRAM_BOUNDS).
    pub fn histogram_bounds(mut self, bounds: Vec<u64>) -> Self {
        self.histogram_bounds = Some(bounds);
        self
    }

    /// Attaches an [`EngineObserver`] receiving phase events and able to
    /// cancel the run. Keep a clone of the `Arc` to flip your
    /// cancellation flag from another thread.
    pub fn progress(mut self, observer: Arc<dyn EngineObserver + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Caps the decomposition's working set at roughly `bytes`, routing
    /// the run through the out-of-core storage tier when the in-memory
    /// footprint would exceed the budget: the graph is streamed from a
    /// paged compressed file through a budget-sized page cache and the
    /// BE-Index is built with a spill-to-disk arena. Results are
    /// bit-identical to the unbudgeted run for every budget; when the
    /// estimated footprint already fits, nothing changes. Only the
    /// default sequential [`Algorithm::BuPlusPlus`] supports budgeting —
    /// combining a budget with another algorithm, with
    /// [`EngineBuilder::threads`], or with [`EngineBuilder::pruned`] is
    /// rejected by [`EngineBuilder::build`].
    ///
    /// ```
    /// use bigraph::GraphBuilder;
    /// use bitruss_core::BitrussEngine;
    ///
    /// let g = GraphBuilder::new()
    ///     .add_edges([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    ///     .build()
    ///     .unwrap();
    /// let session = BitrussEngine::builder()
    ///     .memory_budget(1024) // tiny: forces the out-of-core path
    ///     .build(g)
    ///     .unwrap();
    /// assert_eq!(session.max_bitruss(), 2);
    /// let report = session.metrics().unwrap().memory.unwrap();
    /// assert_eq!(report.budget_bytes, 1024);
    /// ```
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Overrides where the out-of-core path keeps its scratch files
    /// (paged graph, spill runs). Defaults to a process-unique directory
    /// under the system temp dir on the real filesystem; tests inject a
    /// [`MemVfs`](bigraph::vfs::MemVfs) here for determinism and fault
    /// injection. No effect without [`EngineBuilder::memory_budget`].
    pub fn scratch(mut self, vfs: Arc<dyn Vfs>, dir: PathBuf) -> Self {
        self.scratch = Some((vfs, dir));
        self
    }

    /// Runs the configured decomposition on an owned graph and returns
    /// the serving session.
    ///
    /// # Errors
    ///
    /// [`Error::Cancelled`] when the observer cancels the run, or
    /// [`Error::Invariant`] for invalid configurations (e.g.
    /// [`EngineBuilder::threads`] with a non-parallel algorithm, or
    /// invalid [`EngineBuilder::histogram_bounds`]).
    pub fn build(self, graph: BipartiteGraph) -> Result<BitrussEngine<'static>> {
        self.run(SessionGraph::Shared(Arc::new(graph)))
    }

    /// [`EngineBuilder::build`] borrowing the graph instead of owning it
    /// — zero-copy for callers that keep the graph alive themselves
    /// ([`decompose`](crate::decompose) delegates here).
    ///
    /// # Errors
    ///
    /// Same contract as [`EngineBuilder::build`].
    pub fn build_borrowed(self, graph: &BipartiteGraph) -> Result<BitrussEngine<'_>> {
        self.run(SessionGraph::Borrowed(graph))
    }

    /// Resolves the `--threads`-style upgrade rule against the selected
    /// algorithm.
    fn effective_algorithm(&self) -> Result<Algorithm> {
        match (self.threads, self.algorithm) {
            (None, algorithm) => Ok(algorithm),
            (Some(threads), Algorithm::BuPlusPlus | Algorithm::BuPlusPlusPar { .. }) => {
                Ok(Algorithm::BuPlusPlusPar { threads })
            }
            (Some(threads), Algorithm::BuPlusPlusTwoPhase { .. }) => {
                Ok(Algorithm::BuPlusPlusTwoPhase { threads })
            }
            (Some(_), other) => Err(Error::Invariant(format!(
                "threads only apply to the parallel engines (bu++, bu++p, or bu++2p), not {other}"
            ))),
        }
    }

    fn run(self, graph: SessionGraph<'_>) -> Result<BitrussEngine<'_>> {
        let algorithm = self.effective_algorithm()?;
        if let Some(bounds) = &self.histogram_bounds {
            UpdateHistogram::check_bounds(bounds)?;
        }
        if self.memory_budget.is_some() {
            if algorithm != Algorithm::BuPlusPlus {
                return Err(Error::Invariant(format!(
                    "a memory budget only applies to the sequential bu++ engine, not {algorithm}"
                )));
            }
            if self.pruned {
                return Err(Error::Invariant(
                    "a memory budget cannot be combined with (2,2)-core pruning".to_string(),
                ));
            }
        }
        let observer: Arc<dyn EngineObserver + Send + Sync> =
            self.observer.unwrap_or_else(|| Arc::new(NoopObserver));
        let g = graph.get();
        let bounds = self.histogram_bounds.as_deref();
        let over_budget = self
            .memory_budget
            .filter(|&budget| crate::ooc::estimate_in_memory_bytes(g) > budget);
        let (decomposition, metrics) = if let Some(budget_bytes) = over_budget {
            // Stream the graph from a paged file and spill the index
            // build, then peel as usual: bit-identical to the in-memory
            // run (see [`crate::ooc`]).
            let (vfs, dir): (Arc<dyn Vfs>, PathBuf) = match self.scratch {
                Some((vfs, dir)) => (vfs, dir),
                None => (
                    Arc::new(StdVfs),
                    std::env::temp_dir().join(format!("bitruss-ooc-{}", std::process::id())),
                ),
            };
            let source = Source::Budgeted {
                budget_bytes,
                vfs: &*vfs,
                scratch_dir: &dir,
            };
            algo::bu::run(g, Plan::BU_PP, source, bounds, &*observer)?
        } else {
            let (decomposition, mut metrics) = if self.pruned {
                algo::prune_and_run(g, algorithm, bounds, &*observer)?
            } else {
                algo::run_algorithm(g, algorithm, bounds, &*observer)?
            };
            metrics.memory = Some(MemoryReport {
                graph_bytes: g.memory_bytes(),
                index_peak_bytes: metrics.peak_index_bytes,
                page_cache_bytes: 0,
                spill_bytes_written: 0,
                budget_bytes: self.memory_budget.unwrap_or(0),
            });
            (decomposition, metrics)
        };
        let engine = BitrussEngine {
            graph,
            algorithm: Some(algorithm),
            decomposition: Arc::new(decomposition),
            metrics: Some(metrics),
            hierarchy: Arc::new(OnceLock::new()),
            observer,
        };
        if self.hierarchy_mode == HierarchyMode::Eager {
            engine.hierarchy()?;
        }
        Ok(engine)
    }
}

/// How a session holds its graph: borrowed from the caller
/// ([`EngineBuilder::build_borrowed`]) or shared behind an [`Arc`]
/// (everything else). The `Arc` is what makes
/// [`BitrussEngine::clone_shared`] `O(1)`.
enum SessionGraph<'g> {
    /// A caller-owned graph the session merely borrows.
    Borrowed(&'g BipartiteGraph),
    /// Session-owned, shareable state.
    Shared(Arc<BipartiteGraph>),
}

impl SessionGraph<'_> {
    fn get(&self) -> &BipartiteGraph {
        match self {
            SessionGraph::Borrowed(g) => g,
            SessionGraph::Shared(g) => g,
        }
    }

    /// An `Arc` of the graph, copying it once for borrowed sessions.
    fn to_shared(&self) -> Arc<BipartiteGraph> {
        match self {
            SessionGraph::Borrowed(g) => Arc::new((*g).clone()),
            SessionGraph::Shared(g) => Arc::clone(g),
        }
    }
}

/// A decomposition session: the graph, its bitruss numbers, run metrics,
/// and a lazily-built-and-cached [`BitrussHierarchy`] behind one typed
/// API — see the [module docs](self) for the lifecycle.
///
/// The lifetime parameter tracks graph ownership:
/// [`EngineBuilder::build`] and [`BitrussEngine::from_snapshot`] produce
/// self-contained `BitrussEngine<'static>` sessions, while
/// [`EngineBuilder::build_borrowed`] borrows a caller-owned graph. All
/// query methods take `&self`; the session is `Sync`, so a server can
/// share it across request threads — and
/// [`BitrussEngine::clone_shared`] hands out `O(1)` immutable clones of
/// the current state for generation-snapshot serving.
pub struct BitrussEngine<'g> {
    graph: SessionGraph<'g>,
    /// `None` for sessions resumed from a snapshot (the snapshot does not
    /// record which algorithm produced φ).
    algorithm: Option<Algorithm>,
    decomposition: Arc<Decomposition>,
    /// `None` for sessions resumed from a snapshot (no run happened).
    metrics: Option<Metrics>,
    /// Shared with [`BitrussEngine::clone_shared`] clones of the same
    /// generation, so whichever handle builds the index first serves it
    /// to all of them.
    hierarchy: Arc<OnceLock<BitrussHierarchy>>,
    observer: Arc<dyn EngineObserver + Send + Sync>,
}

impl fmt::Debug for BitrussEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitrussEngine")
            .field("num_edges", &self.graph.get().num_edges())
            .field("algorithm", &self.algorithm)
            .field("max_bitruss", &self.decomposition.max_bitruss())
            .field("hierarchy_built", &self.hierarchy.get().is_some())
            .finish_non_exhaustive()
    }
}

impl BitrussEngine<'static> {
    /// Resumes a session from a binary snapshot file written by
    /// [`BitrussEngine::save_snapshot`] (or the lower-level
    /// [`write_snapshot_file`]). A hierarchy
    /// persisted in the snapshot is adopted directly — the index build is
    /// never repeated; [`BitrussEngine::metrics`] and
    /// [`BitrussEngine::algorithm`] are `None` because no run happened.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on I/O failures, [`Error::Corrupt`] when the
    /// snapshot fails validation.
    pub fn from_snapshot<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::adopt(read_snapshot_file(path)?)
    }

    /// [`BitrussEngine::from_snapshot`] over any reader.
    ///
    /// # Errors
    ///
    /// Same contract as [`BitrussEngine::from_snapshot`].
    pub fn from_snapshot_reader<R: Read>(reader: R) -> Result<Self> {
        Self::adopt(read_snapshot(reader)?)
    }

    /// Builds a session directly from an already-loaded
    /// [`Snapshot`](crate::persist::binary::Snapshot) — the entry point
    /// durable stores use after
    /// [`crate::persist::store::SnapshotStore::recover`] has validated
    /// the bytes. A persisted hierarchy is adopted without a rebuild;
    /// [`BitrussEngine::metrics`] and [`BitrussEngine::algorithm`] are
    /// `None` because no run happened.
    ///
    /// # Errors
    ///
    /// Currently infallible (the snapshot was validated on load), but
    /// typed as [`Result`] to keep room for cross-checks.
    pub fn from_snapshot_parts(snapshot: crate::persist::binary::Snapshot) -> Result<Self> {
        Self::adopt(snapshot)
    }

    fn adopt(snapshot: crate::persist::binary::Snapshot) -> Result<Self> {
        let hierarchy = OnceLock::new();
        if let Some(h) = snapshot.hierarchy {
            let _ = hierarchy.set(h);
        }
        Ok(BitrussEngine {
            graph: SessionGraph::Shared(Arc::new(snapshot.graph)),
            algorithm: None,
            decomposition: Arc::new(snapshot.decomposition),
            metrics: None,
            hierarchy: Arc::new(hierarchy),
            observer: Arc::new(NoopObserver),
        })
    }
}

impl<'g> BitrussEngine<'g> {
    /// Starts configuring a new session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The graph this session serves.
    pub fn graph(&self) -> &BipartiteGraph {
        self.graph.get()
    }

    /// An independent, immutable handle to this session's *current*
    /// state — graph, φ, and the (possibly not-yet-built) hierarchy
    /// cache — in `O(1)`: the state is `Arc`-shared, not copied. The
    /// clone stays pinned to this generation even if the original
    /// session later advances via [`BitrussEngine::replace_state`]
    /// (which installs fresh state rather than mutating the shared
    /// one), so serving layers publish each committed generation with
    /// this and let concurrent readers query it without ever blocking a
    /// writer.
    ///
    /// Clones of the same generation share one lazy hierarchy cache:
    /// whichever handle builds the index first serves it to all. For
    /// borrowed sessions ([`EngineBuilder::build_borrowed`]) the graph
    /// is copied once to make the clone self-contained.
    pub fn clone_shared(&self) -> BitrussEngine<'static> {
        BitrussEngine {
            graph: SessionGraph::Shared(self.graph.to_shared()),
            algorithm: self.algorithm,
            decomposition: Arc::clone(&self.decomposition),
            metrics: self.metrics.clone(),
            hierarchy: Arc::clone(&self.hierarchy),
            observer: Arc::clone(&self.observer),
        }
    }

    /// The algorithm that produced φ (`None` when resumed from a
    /// snapshot).
    pub fn algorithm(&self) -> Option<Algorithm> {
        self.algorithm
    }

    /// The bitruss number of every edge, indexed by edge id.
    pub fn phi(&self) -> &[u64] {
        &self.decomposition.phi
    }

    /// The full decomposition result.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomposition
    }

    /// Metrics of the decomposition run (`None` when resumed from a
    /// snapshot — no run happened in this session).
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// The observer attached to this session ([`NoopObserver`] when none
    /// was configured). Maintenance layers thread it through their own
    /// passes so progress and cancellation keep working across updates.
    pub fn observer(&self) -> Arc<dyn EngineObserver + Send + Sync> {
        Arc::clone(&self.observer)
    }

    /// Replaces the session's graph and decomposition in one step — the
    /// splice point for dynamic maintenance layers (e.g. the
    /// `bitruss_dynamic` crate's `apply`), which compute an updated
    /// `(graph, φ)` pair and hand the session its next generation.
    ///
    /// The cached hierarchy index is invalidated (the next query or
    /// snapshot rebuilds it lazily), [`BitrussEngine::metrics`] is set to
    /// `metrics` (maintenance layers report their own phase times and
    /// affected/reused counts there), and
    /// [`BitrussEngine::algorithm`] is cleared — φ no longer comes from a
    /// single from-scratch run.
    ///
    /// Fresh state is *installed*, never written through the shared
    /// `Arc`s, so every [`BitrussEngine::clone_shared`] handle taken
    /// before this call keeps serving the previous generation
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] when the decomposition does not belong to the
    /// graph (φ length differs from the edge count).
    pub fn replace_state(
        &mut self,
        graph: BipartiteGraph,
        decomposition: Decomposition,
        metrics: Option<Metrics>,
    ) -> Result<()> {
        if decomposition.phi.len() != graph.num_edges() as usize {
            return Err(Error::Invariant(format!(
                "{} φ values for {} edges",
                decomposition.phi.len(),
                graph.num_edges()
            )));
        }
        self.graph = SessionGraph::Shared(Arc::new(graph));
        self.decomposition = Arc::new(decomposition);
        self.metrics = metrics;
        self.algorithm = None;
        self.hierarchy = Arc::new(OnceLock::new());
        Ok(())
    }

    /// The maximum bitruss number over all edges.
    pub fn max_bitruss(&self) -> u64 {
        self.decomposition.max_bitruss()
    }

    /// Edge count per distinct bitruss number. Served from the hierarchy
    /// when it is already built (`O(L)`), otherwise from one φ scan.
    pub fn level_sizes(&self) -> std::collections::BTreeMap<u64, usize> {
        match self.hierarchy.get() {
            Some(h) => h.level_sizes(),
            None => self.decomposition.level_sizes(),
        }
    }

    /// The hierarchy index, building and caching it on first use.
    /// Subsequent calls are lock-free reads. Concurrent first callers
    /// share one build: one runs it, the others wait for its result.
    ///
    /// # Errors
    ///
    /// [`Error::Cancelled`] when the session's observer cancels the
    /// build.
    pub fn hierarchy(&self) -> Result<&BitrussHierarchy> {
        if let Some(h) = self.hierarchy.get() {
            return Ok(h);
        }
        let observer = &*self.observer;
        checkpoint(observer)?;
        let g = self.graph.get();
        // Every session's φ holds one entry per edge: the builder runs
        // the decomposition on `g`, snapshots are validated on load and
        // `replace_state` checks the lengths.
        Ok(self.hierarchy.get_or_init(|| {
            observer.on_phase_start(Phase::HierarchyBuild, g.num_edges() as u64);
            let h = BitrussHierarchy::build(g, &self.decomposition.phi);
            observer.on_phase_end(Phase::HierarchyBuild);
            h
        }))
    }

    /// The number of edges in the k-bitruss, in `O(log L)`.
    ///
    /// # Errors
    ///
    /// See [`BitrussEngine::hierarchy`].
    pub fn k_bitruss_count(&self, k: u64) -> Result<usize> {
        Ok(self.hierarchy()?.k_bitruss_count(k))
    }

    /// The edges of the k-bitruss (ascending edge ids), output-
    /// sensitively.
    ///
    /// # Errors
    ///
    /// See [`BitrussEngine::hierarchy`].
    pub fn k_bitruss_edges(&self, k: u64) -> Result<Vec<EdgeId>> {
        Ok(self.hierarchy()?.k_bitruss_edges(k))
    }

    /// The largest `k` whose k-bitruss contains an edge incident to `v`
    /// (`None` for isolated vertices), in `O(1)` after the hierarchy is
    /// built.
    ///
    /// # Errors
    ///
    /// See [`BitrussEngine::hierarchy`].
    pub fn max_k(&self, v: VertexId) -> Result<Option<u64>> {
        Ok(self.hierarchy()?.max_k(v))
    }

    /// The connected component of the k-bitruss containing edge `e`
    /// (`None` when `φ(e) < k`), output-sensitively.
    ///
    /// # Errors
    ///
    /// See [`BitrussEngine::hierarchy`].
    pub fn community_of(&self, e: EdgeId, k: u64) -> Result<Option<Community>> {
        Ok(self.hierarchy()?.community_of(self.graph.get(), e, k))
    }

    /// All connected components of the k-bitruss, output-sensitively.
    ///
    /// # Errors
    ///
    /// See [`BitrussEngine::hierarchy`].
    pub fn communities(&self, k: u64) -> Result<Vec<Community>> {
        Ok(self.hierarchy()?.communities(self.graph.get(), k))
    }

    /// Executes one typed query. `Levels`/`Edges` answer from the
    /// hierarchy index; `Community` resolves the edge first (producing
    /// the miss variants of [`QueryAnswer`] rather than errors, so batch
    /// serving survives bad inputs).
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] when a `Community` query addresses a vertex
    /// outside the graph's layers, or [`Error::Cancelled`] from a
    /// cancelled lazy hierarchy build.
    pub fn execute(&self, query: &Query) -> Result<QueryAnswer> {
        match *query {
            // level_sizes answers without forcing the lazy hierarchy
            // build (one φ scan until the index exists, O(L) after).
            Query::Levels => Ok(QueryAnswer::Levels(
                self.level_sizes().into_iter().collect(),
            )),
            Query::Edges { k } => Ok(QueryAnswer::Count {
                k,
                count: self.k_bitruss_count(k)?,
            }),
            Query::Community { upper, lower, k } => {
                let g = self.graph();
                if upper >= g.num_upper() as u64 || lower >= g.num_lower() as u64 {
                    return Err(Error::Invariant(format!(
                        "vertex ({upper}, {lower}) out of range"
                    )));
                }
                let Some(e) = g.edge_between(g.upper(upper as u32), g.lower(lower as u32)) else {
                    return Ok(QueryAnswer::NoSuchEdge { upper, lower, k });
                };
                // The reply is three counts: read them off the community's
                // root node instead of materializing the community.
                let h = self.hierarchy()?;
                match h.community_size(e, k) {
                    None => Ok(QueryAnswer::NotInTruss {
                        upper,
                        lower,
                        k,
                        phi: h.phi_of(e),
                    }),
                    Some(size) => Ok(QueryAnswer::Community {
                        upper,
                        lower,
                        k,
                        num_upper: size.num_upper,
                        num_lower: size.num_lower,
                        num_edges: size.num_edges,
                    }),
                }
            }
        }
    }

    /// Serves one line of the batch query language (see [`Query`]).
    /// Returns `Ok(None)` for blank/comment lines and `Ok(Some(text))`
    /// otherwise — malformed queries render as `error: …` text instead of
    /// failing, so a bad line never kills a server loop.
    ///
    /// # Errors
    ///
    /// Only engine-level failures (a cancelled lazy hierarchy build).
    pub fn query_line(&self, line: &str) -> Result<Option<String>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            return Ok(None);
        }
        let query = match line.parse::<Query>() {
            Ok(q) => q,
            Err(e) => return Ok(Some(format!("error: {e}"))),
        };
        match self.execute(&query) {
            Ok(answer) => Ok(Some(answer.to_string())),
            // Out-of-range community vertices are data errors, not engine
            // failures — keep the batch alive (execute only returns
            // Invariant for them).
            Err(Error::Invariant(msg)) => Ok(Some(format!("error: community: {msg}"))),
            Err(e) => Err(e),
        }
    }

    /// Serves a whole batch: one query per line from `reader`, one
    /// rendered answer per query to `writer`, **flushed after every
    /// answer** so interactive stdin and socket sessions see each
    /// response as soon as it is computed instead of when the writer's
    /// buffer happens to fill. Returns the number of queries answered
    /// (comments and blank lines excluded). This is the exact serving
    /// loop of the CLI `query` subcommand and the server's per-
    /// connection read path.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on reader/writer failures, or a cancelled lazy
    /// hierarchy build.
    pub fn run_queries<R: BufRead, W: Write>(&self, reader: R, mut writer: W) -> Result<u64> {
        let mut answered = 0u64;
        for line in reader.lines() {
            let line = line?;
            if let Some(answer) = self.query_line(&line)? {
                writeln!(writer, "{answer}")?;
                writer.flush()?;
                answered += 1;
            }
        }
        Ok(answered)
    }

    /// Writes a versioned, checksummed binary snapshot of the session —
    /// graph, φ, and the hierarchy index — so a query server can resume
    /// with [`BitrussEngine::from_snapshot`] without recomputing
    /// anything. Builds the hierarchy first if it is not cached yet.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write failures, or a cancelled hierarchy build.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let h = self.hierarchy()?;
        write_snapshot_file(self.graph.get(), &self.decomposition, Some(h), path)
    }

    /// [`BitrussEngine::save_snapshot`] over any writer.
    ///
    /// # Errors
    ///
    /// Same contract as [`BitrussEngine::save_snapshot`].
    pub fn save_snapshot_to<W: Write>(&self, writer: W) -> Result<()> {
        let h = self.hierarchy()?;
        write_snapshot(self.graph.get(), &self.decomposition, Some(h), writer)
    }

    /// Consumes the session, returning the decomposition and the run
    /// metrics ([`Metrics::default`] when resumed from a snapshot).
    /// [`decompose`](crate::decompose) is implemented with this. When the
    /// state is still shared with [`BitrussEngine::clone_shared`]
    /// handles, the decomposition is copied out; otherwise it is moved.
    pub fn into_parts(self) -> (Decomposition, Metrics) {
        let decomposition =
            Arc::try_unwrap(self.decomposition).unwrap_or_else(|shared| (*shared).clone());
        (decomposition, self.metrics.unwrap_or_default())
    }
}

/// One query of the batch language served by [`BitrussEngine::execute`]
/// and the CLI `query` subcommand:
///
/// ```text
/// levels                  # edge count per bitruss number
/// edges <k>               # size of the k-bitruss
/// community <u> <v> <k>   # the k-bitruss community around edge (u, v)
/// ```
///
/// Marked `#[non_exhaustive]`: new query verbs may be added without a
/// semver break.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Edge count per distinct bitruss number.
    Levels,
    /// Size of the k-bitruss.
    Edges {
        /// The truss level.
        k: u64,
    },
    /// The k-bitruss community containing the edge between upper vertex
    /// `upper` and lower vertex `lower` (layer-local indices).
    Community {
        /// Layer-local upper vertex index.
        upper: u64,
        /// Layer-local lower vertex index.
        lower: u64,
        /// The truss level.
        k: u64,
    },
}

/// Parses one line of the batch query language. The error string names
/// the offending verb and argument (e.g. `edges: missing k`), ready to
/// print after an `error: ` prefix.
impl FromStr for Query {
    type Err = String;

    fn from_str(line: &str) -> std::result::Result<Query, String> {
        let mut it = line.split_whitespace();
        let verb = it.next().unwrap_or_default();
        let mut num = |what: &str| -> std::result::Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("invalid {what}"))
        };
        match verb {
            "levels" => Ok(Query::Levels),
            "edges" => num("k")
                .map(|k| Query::Edges { k })
                .map_err(|e| format!("edges: {e}")),
            "community" => (|| {
                Ok(Query::Community {
                    upper: num("upper index")?,
                    lower: num("lower index")?,
                    k: num("k")?,
                })
            })()
            .map_err(|e: String| format!("community: {e}")),
            other => Err(format!(
                "unknown query {other:?} (expected levels | edges | community)"
            )),
        }
    }
}

/// The typed answer to a [`Query`]; its [`fmt::Display`] renders the
/// exact line format the CLI `query` subcommand prints.
///
/// Marked `#[non_exhaustive]`: new query verbs bring new answers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// `(k, edge count)` per distinct bitruss number, ascending.
    Levels(Vec<(u64, usize)>),
    /// Size of the k-bitruss.
    Count {
        /// The queried truss level.
        k: u64,
        /// Number of edges with `φ ≥ k`.
        count: usize,
    },
    /// The addressed vertex pair is in range but not connected.
    NoSuchEdge {
        /// Layer-local upper vertex index.
        upper: u64,
        /// Layer-local lower vertex index.
        lower: u64,
        /// The queried truss level.
        k: u64,
    },
    /// The edge exists but its bitruss number is below `k`.
    NotInTruss {
        /// Layer-local upper vertex index.
        upper: u64,
        /// Layer-local lower vertex index.
        lower: u64,
        /// The queried truss level.
        k: u64,
        /// The edge's actual bitruss number.
        phi: u64,
    },
    /// The community summary.
    Community {
        /// Layer-local upper vertex index.
        upper: u64,
        /// Layer-local lower vertex index.
        lower: u64,
        /// The queried truss level.
        k: u64,
        /// Upper-layer members of the community.
        num_upper: usize,
        /// Lower-layer members of the community.
        num_lower: usize,
        /// Edges of the community.
        num_edges: usize,
    },
}

impl fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryAnswer::Levels(levels) => {
                for (i, (k, n)) in levels.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "phi = {k}: {n} edges")?;
                }
                Ok(())
            }
            QueryAnswer::Count { k, count } => write!(f, "{count} edges with phi >= {k}"),
            QueryAnswer::NoSuchEdge { upper, lower, k } => {
                write!(f, "community ({upper}, {lower}) k={k}: no such edge")
            }
            QueryAnswer::NotInTruss {
                upper,
                lower,
                k,
                phi,
            } => write!(
                f,
                "community ({upper}, {lower}) k={k}: edge not in the {k}-bitruss (phi = {phi})"
            ),
            QueryAnswer::Community {
                upper,
                lower,
                k,
                num_upper,
                num_lower,
                num_edges,
            } => write!(
                f,
                "community ({upper}, {lower}) k={k}: {num_upper} upper + {num_lower} lower vertices, {num_edges} edges"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    fn fig1() -> BipartiteGraph {
        GraphBuilder::new()
            .add_edges([
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 1),
                (3, 2),
                (3, 4),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn session_lifecycle_on_fig1() {
        let session = BitrussEngine::builder().build(fig1()).unwrap();
        assert_eq!(session.algorithm(), Some(Algorithm::BuPlusPlus));
        assert_eq!(session.max_bitruss(), 2);
        assert_eq!(session.phi().len(), 11);
        assert!(session.metrics().is_some());
        assert_eq!(session.k_bitruss_count(2).unwrap(), 6);
        assert_eq!(session.k_bitruss_edges(2).unwrap().len(), 6);
        let communities = session.communities(2).unwrap();
        assert_eq!(communities.len(), 1);
        let g = session.graph();
        let e = g.edge_between(g.upper(0), g.lower(0)).unwrap();
        assert!(session.community_of(e, 2).unwrap().is_some());
        assert!(session.community_of(e, 3).unwrap().is_none());
        assert_eq!(session.max_k(g.upper(0)).unwrap(), Some(2));
    }

    #[test]
    fn borrowed_sessions_leave_the_graph_to_the_caller() {
        let g = fig1();
        let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
        assert_eq!(session.max_bitruss(), 2);
        drop(session);
        assert_eq!(g.num_edges(), 11); // still ours
    }

    #[test]
    fn threads_upgrade_rule() {
        let session = BitrussEngine::builder()
            .threads(Threads(2))
            .build(fig1())
            .unwrap();
        assert!(matches!(
            session.algorithm(),
            Some(Algorithm::BuPlusPlusPar {
                threads: Threads(2)
            })
        ));

        let session = BitrussEngine::builder()
            .algorithm(Algorithm::two_phase_auto())
            .threads(Threads(4))
            .build(fig1())
            .unwrap();
        assert!(matches!(
            session.algorithm(),
            Some(Algorithm::BuPlusPlusTwoPhase {
                threads: Threads(4)
            })
        ));

        let err = BitrussEngine::builder()
            .algorithm(Algorithm::Bu)
            .threads(Threads(2))
            .build(fig1())
            .unwrap_err();
        assert!(matches!(err, Error::Invariant(_)), "{err}");
    }

    #[test]
    fn memory_budget_rules() {
        // Budget + non-default algorithm / threads / pruning → Invariant.
        let err = BitrussEngine::builder()
            .algorithm(Algorithm::Bu)
            .memory_budget(1024)
            .build(fig1())
            .unwrap_err();
        assert!(matches!(err, Error::Invariant(_)), "{err}");
        let err = BitrussEngine::builder()
            .threads(Threads(2))
            .memory_budget(1024)
            .build(fig1())
            .unwrap_err();
        assert!(matches!(err, Error::Invariant(_)), "{err}");
        let err = BitrussEngine::builder()
            .pruned(true)
            .memory_budget(1024)
            .build(fig1())
            .unwrap_err();
        assert!(matches!(err, Error::Invariant(_)), "{err}");
    }

    #[test]
    fn under_budget_runs_in_memory_over_budget_spills_and_both_agree() {
        let baseline = BitrussEngine::builder().build(fig1()).unwrap();
        let report = baseline.metrics().unwrap().memory.unwrap();
        assert_eq!(report.budget_bytes, 0);
        assert_eq!(report.page_cache_bytes, 0);
        assert_eq!(report.spill_bytes_written, 0);
        assert_eq!(report.graph_bytes, fig1().memory_bytes());

        // A huge budget fits the estimate: the in-memory path runs and
        // records the budget it was checked against.
        let roomy = BitrussEngine::builder()
            .memory_budget(usize::MAX)
            .build(fig1())
            .unwrap();
        let roomy_report = roomy.metrics().unwrap().memory.unwrap();
        assert_eq!(roomy_report.budget_bytes, usize::MAX);
        assert_eq!(roomy_report.page_cache_bytes, 0);
        assert_eq!(roomy_report.spill_bytes_written, 0);
        assert_eq!(roomy.phi(), baseline.phi());

        // A tiny budget routes out of core on a MemVfs scratch; φ and
        // the hierarchy answers are bit-identical.
        let vfs = Arc::new(bigraph::vfs::MemVfs::new());
        let tight = BitrussEngine::builder()
            .memory_budget(64)
            .scratch(vfs, PathBuf::from("scratch"))
            .build(fig1())
            .unwrap();
        assert_eq!(tight.phi(), baseline.phi());
        assert_eq!(tight.max_bitruss(), baseline.max_bitruss());
        let tight_report = tight.metrics().unwrap().memory.unwrap();
        assert_eq!(tight_report.budget_bytes, 64);
        assert!(tight_report.spill_bytes_written > 0);
        assert!(tight_report.graph_bytes < fig1().memory_bytes());
        assert_eq!(
            tight.k_bitruss_count(2).unwrap(),
            baseline.k_bitruss_count(2).unwrap()
        );
    }

    #[test]
    fn eager_hierarchy_is_prebuilt() {
        let session = BitrussEngine::builder()
            .hierarchy(HierarchyMode::Eager)
            .build(fig1())
            .unwrap();
        assert!(session.hierarchy.get().is_some());
        assert_eq!(session.level_sizes()[&2], 6);
    }

    #[test]
    fn pruned_sessions_match_plain() {
        let g = datagen::powerlaw::chung_lu(50, 50, 320, 2.1, 2.1, 9);
        let plain = BitrussEngine::builder().build_borrowed(&g).unwrap();
        let pruned = BitrussEngine::builder()
            .pruned(true)
            .build_borrowed(&g)
            .unwrap();
        assert_eq!(plain.phi(), pruned.phi());
    }

    #[test]
    fn histogram_bounds_are_collected() {
        let session = BitrussEngine::builder()
            .histogram_bounds(vec![1, 2])
            .build(fig1())
            .unwrap();
        assert!(session.metrics().unwrap().histogram.is_some());

        // Every kernel plan honours the bounds. BU# and BU++/P aggregate
        // their writes exactly as BU+ does, so their buckets equal BU+'s.
        let g = datagen::powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 8);
        let histogram = |algorithm| {
            let session = BitrussEngine::builder()
                .algorithm(algorithm)
                .histogram_bounds(vec![10, 100, 1_000])
                .build_borrowed(&g)
                .unwrap();
            let metrics = session.metrics().unwrap();
            metrics.histogram.as_ref().map(|h| {
                assert_eq!(h.counts().iter().sum::<u64>(), metrics.support_updates);
                h.counts().to_vec()
            })
        };
        let plus = histogram(Algorithm::BuPlus).unwrap();
        assert_eq!(histogram(Algorithm::BuHybrid).unwrap(), plus);
        for t in [1, 2, 3] {
            let par = Algorithm::BuPlusPlusPar {
                threads: Threads(t),
            };
            assert_eq!(histogram(par).unwrap(), plus, "threads {t}");
        }
        for alg in [
            Algorithm::Bu,
            Algorithm::BuPlusPlus,
            Algorithm::pc_default(),
        ] {
            assert!(histogram(alg).is_some(), "{alg}");
        }
        // BiT-BU++2P tallies its coarse scan and every band peel per
        // thread; the merged buckets cannot depend on the thread count.
        let two_phase = histogram(Algorithm::BuPlusPlusTwoPhase {
            threads: Threads(1),
        })
        .unwrap();
        for t in [2, 3, 8] {
            let at = Algorithm::BuPlusPlusTwoPhase {
                threads: Threads(t),
            };
            assert_eq!(histogram(at).unwrap(), two_phase, "threads {t}");
        }
        // BiT-BS peels without a BE-Index.
        assert!(histogram(Algorithm::BsIntersection).is_none());
    }

    #[test]
    fn query_language_round_trip() {
        let session = BitrussEngine::builder().build(fig1()).unwrap();
        assert_eq!("levels".parse::<Query>(), Ok(Query::Levels));
        assert_eq!("edges 2".parse::<Query>(), Ok(Query::Edges { k: 2 }));
        assert_eq!(
            "community 0 0 2".parse::<Query>(),
            Ok(Query::Community {
                upper: 0,
                lower: 0,
                k: 2
            })
        );
        assert_eq!(
            "edges".parse::<Query>().unwrap_err(),
            "edges: missing k".to_string()
        );
        assert_eq!(
            "community 0 x 2".parse::<Query>().unwrap_err(),
            "community: invalid lower index".to_string()
        );

        let answer = session.execute(&Query::Edges { k: 2 }).unwrap();
        assert_eq!(answer.to_string(), "6 edges with phi >= 2");
        assert_eq!(
            session
                .execute(&Query::Community {
                    upper: 0,
                    lower: 0,
                    k: 2
                })
                .unwrap()
                .to_string(),
            "community (0, 0) k=2: 3 upper + 2 lower vertices, 6 edges"
        );
        assert_eq!(
            session
                .execute(&Query::Community {
                    upper: 3,
                    lower: 4,
                    k: 2
                })
                .unwrap(),
            QueryAnswer::NotInTruss {
                upper: 3,
                lower: 4,
                k: 2,
                phi: 0
            }
        );
        assert_eq!(
            session
                .execute(&Query::Community {
                    upper: 0,
                    lower: 4,
                    k: 1
                })
                .unwrap(),
            QueryAnswer::NoSuchEdge {
                upper: 0,
                lower: 4,
                k: 1
            }
        );
        assert!(matches!(
            session.execute(&Query::Community {
                upper: 99,
                lower: 0,
                k: 1
            }),
            Err(Error::Invariant(_))
        ));
    }

    #[test]
    fn batch_serving_matches_line_protocol() {
        let session = BitrussEngine::builder().build(fig1()).unwrap();
        let input =
            "% a comment\n\nlevels\nedges 2\ncommunity 0 0 2\nbogus\nedges\ncommunity 99 0 1\n";
        let mut out = Vec::new();
        let answered = session.run_queries(input.as_bytes(), &mut out).unwrap();
        assert_eq!(answered, 6);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "phi = 0: 2 edges");
        assert_eq!(lines[1], "phi = 1: 3 edges");
        assert_eq!(lines[2], "phi = 2: 6 edges");
        assert_eq!(lines[3], "6 edges with phi >= 2");
        assert_eq!(
            lines[4],
            "community (0, 0) k=2: 3 upper + 2 lower vertices, 6 edges"
        );
        assert!(lines[5].starts_with("error: unknown query \"bogus\""));
        assert_eq!(lines[6], "error: edges: missing k");
        assert_eq!(lines[7], "error: community: vertex (99, 0) out of range");
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn snapshot_round_trip_through_the_engine() {
        let g = datagen::random::uniform(12, 12, 55, 5);
        let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
        let mut bytes = Vec::new();
        session.save_snapshot_to(&mut bytes).unwrap();
        let resumed = BitrussEngine::from_snapshot_reader(&bytes[..]).unwrap();
        assert_eq!(resumed.phi(), session.phi());
        assert!(resumed.metrics().is_none());
        assert!(resumed.algorithm().is_none());
        // The persisted hierarchy was adopted — queries agree.
        assert!(resumed.hierarchy.get().is_some());
        for k in 0..=session.max_bitruss() {
            assert_eq!(
                resumed.k_bitruss_edges(k).unwrap(),
                session.k_bitruss_edges(k).unwrap()
            );
        }
    }

    #[test]
    fn racing_first_pins_share_one_hierarchy_build() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        #[derive(Default)]
        struct BuildCounter(AtomicUsize);
        impl EngineObserver for BuildCounter {
            fn on_phase_start(&self, phase: Phase, _total: u64) {
                if phase == Phase::HierarchyBuild {
                    // Relaxed: a plain event counter, read after the joins.
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let g = datagen::powerlaw::chung_lu(300, 300, 6_000, 2.1, 2.1, 4);
        let counter = Arc::new(BuildCounter::default());
        let session = BitrussEngine::builder()
            .progress(counter.clone())
            .build(g)
            .unwrap();
        let readers = 4;
        let barrier = Barrier::new(readers);
        let built: Vec<&BitrussHierarchy> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        session.hierarchy().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counter.0.load(Ordering::Relaxed), 1);
        assert!(built.iter().all(|&h| std::ptr::eq(h, built[0])));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitrussEngine<'static>>();
        assert_send_sync::<EngineBuilder>();
    }
}
