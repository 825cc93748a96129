//! The decomposition algorithms of the paper and a uniform entry point.
//!
//! Every BE-Index algorithm (BiT-BU, BiT-BU+, BiT-BU++, BiT-BU#, BiT-BU++/P
//! and BiT-PC) peels through one kernel (`algo/peel.rs`, described in
//! `docs/ARCHITECTURE.md`); [`decompose`] and the
//! [`BitrussEngine`](crate::engine::BitrussEngine) select among them with
//! [`Algorithm`].

pub(crate) mod bs;
pub(crate) mod bu;
pub(crate) mod pc;
pub(crate) mod peel;

pub use butterfly::Threads;
pub use pc::{kmax_bound, DEFAULT_TAU};

use std::fmt;
use std::str::FromStr;

use bigraph::progress::EngineObserver;
use bigraph::{BipartiteGraph, Result};

use self::bs::PeelStrategy;
use self::bu::Source;
use self::peel::Plan;
use crate::decomposition::Decomposition;
use crate::metrics::Metrics;
use crate::partition::DEFAULT_NUM_BANDS;

/// Algorithm selector for [`decompose`] and the
/// [`BitrussEngine`](crate::engine::BitrussEngine).
///
/// Marked `#[non_exhaustive]`: future engines may be added without a
/// semver break, so downstream matches need a wildcard arm. Parse
/// algorithm names with the [`FromStr`] impl (the CLI spelling, e.g.
/// `"bu++"`, `"bu++p"`, `"pc"`) and print them with [`fmt::Display`]
/// (the paper spelling, e.g. `"BU++"`).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// BiT-BS with the intersection peeling of ref.\[5\] (Algorithm 1).
    BsIntersection,
    /// BiT-BS with the pair-enumeration peeling of ref.\[9\].
    BsPairEnumeration,
    /// BiT-BU (Algorithm 4).
    Bu,
    /// BiT-BU+ — batch edge processing only.
    BuPlus,
    /// BiT-BU++ (Algorithm 5) — both batch optimizations.
    BuPlusPlus,
    /// BiT-BU++/P (extension): the shared-memory parallel engine —
    /// parallel counting, parallel index construction and parallel batch
    /// bloom processing across the configured worker threads.
    BuPlusPlusPar {
        /// Worker-thread configuration (`Threads(0)` = auto-detect).
        threads: Threads,
    },
    /// BiT-BU# (extension): one bloom traversal per batch (as BU++) with
    /// writes aggregated per affected edge (as BU+).
    BuHybrid,
    /// BiT-BU++2P (extension): the two-phase partition-parallel engine —
    /// a coarse scan splits the φ range into contiguous bands, each band
    /// peels independently with partition-local state, and a stitch pass
    /// settles the exact values. See [`crate::partition`].
    BuPlusPlusTwoPhase {
        /// Worker-thread configuration (`Threads(0)` = auto-detect).
        threads: Threads,
    },
    /// BiT-PC (Algorithm 7) with compression parameter τ.
    Pc {
        /// Compression parameter in `(0, 1]`; see [`DEFAULT_TAU`].
        tau: f64,
    },
}

impl Algorithm {
    /// BiT-PC with the paper's default τ.
    pub fn pc_default() -> Algorithm {
        Algorithm::Pc { tau: DEFAULT_TAU }
    }

    /// BiT-BU++/P with auto-detected worker threads.
    pub fn parallel_auto() -> Algorithm {
        Algorithm::BuPlusPlusPar {
            threads: Threads::AUTO,
        }
    }

    /// BiT-BU++2P with auto-detected worker threads.
    pub fn two_phase_auto() -> Algorithm {
        Algorithm::BuPlusPlusTwoPhase {
            threads: Threads::AUTO,
        }
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::BsIntersection => "BS",
            Algorithm::BsPairEnumeration => "BS-pair",
            Algorithm::Bu => "BU",
            Algorithm::BuPlus => "BU+",
            Algorithm::BuPlusPlus => "BU++",
            Algorithm::BuPlusPlusPar { .. } => "BU++/P",
            Algorithm::BuHybrid => "BU#",
            Algorithm::BuPlusPlusTwoPhase { .. } => "BU++2P",
            Algorithm::Pc { .. } => "PC",
        }
    }

    /// The four algorithms compared in Figure 9, in plot order.
    pub fn figure9_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::BsIntersection,
            Algorithm::Bu,
            Algorithm::BuPlusPlus,
            Algorithm::pc_default(),
        ]
    }
}

/// Prints the paper-style name ([`Algorithm::name`]); parameters (τ,
/// thread count) are not rendered, matching the figure labels.
impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when an algorithm name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    name: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown algorithm {:?} (expected bs, bs-pair, bu, bu+, bu++, bu++p, bu++2p, bu#, or pc)",
            self.name
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

/// Parses the CLI spelling of an algorithm name, case-insensitively:
/// `bs`, `bs-pair`, `bu`, `bu+`, `bu++`, `bu++p` (or `bu++/p`),
/// `bu++2p`, `bu#` (or `bu-hybrid`), `pc`. The paper spellings produced
/// by [`Algorithm::name`] round-trip. Parameterized variants parse with
/// their defaults — `pc` gets [`DEFAULT_TAU`], `bu++p` and `bu++2p` get
/// [`Threads::AUTO`] — and callers override the fields afterwards.
impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> std::result::Result<Algorithm, ParseAlgorithmError> {
        match s.to_ascii_lowercase().as_str() {
            "bs" => Ok(Algorithm::BsIntersection),
            "bs-pair" => Ok(Algorithm::BsPairEnumeration),
            "bu" => Ok(Algorithm::Bu),
            "bu+" => Ok(Algorithm::BuPlus),
            "bu++" => Ok(Algorithm::BuPlusPlus),
            "bu++p" | "bu++/p" => Ok(Algorithm::parallel_auto()),
            "bu++2p" => Ok(Algorithm::two_phase_auto()),
            "bu#" | "bu-hybrid" => Ok(Algorithm::BuHybrid),
            "pc" => Ok(Algorithm::pc_default()),
            _ => Err(ParseAlgorithmError {
                name: s.to_string(),
            }),
        }
    }
}

/// Dispatches one observed run; the single place every entry point —
/// the engine, [`decompose`], [`decompose_observed`] — funnels through.
/// The histogram bounds apply to every algorithm but the BiT-BS
/// variants, which peel without a BE-Index.
pub(crate) fn run_algorithm(
    g: &BipartiteGraph,
    algorithm: Algorithm,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let sequential = |plan| bu::run(g, plan, Source::Sequential, histogram_bounds, observer);
    match algorithm {
        Algorithm::BsIntersection => bs::run(g, PeelStrategy::Intersection, observer),
        Algorithm::BsPairEnumeration => bs::run(g, PeelStrategy::PairEnumeration, observer),
        Algorithm::Bu => sequential(Plan::BU),
        Algorithm::BuPlus => sequential(Plan::BU_PLUS),
        Algorithm::BuPlusPlus => sequential(Plan::BU_PP),
        Algorithm::BuHybrid => sequential(Plan::BU_HYBRID),
        Algorithm::BuPlusPlusPar { threads } => bu::run(
            g,
            Plan::parallel(threads.resolve()),
            Source::Parallel,
            histogram_bounds,
            observer,
        ),
        Algorithm::BuPlusPlusTwoPhase { threads } => crate::partition::bit_bu_pp_2p_run(
            g,
            threads,
            DEFAULT_NUM_BANDS,
            histogram_bounds,
            observer,
        )
        .map(|(d, m, _)| (d, m)),
        Algorithm::Pc { tau } => pc::run(g, tau, histogram_bounds, observer),
    }
}

/// Runs bitruss decomposition with the selected algorithm. All algorithms
/// return identical φ arrays; they differ in how the peeling work is
/// organized, which the returned [`Metrics`] quantify.
///
/// This is the one-shot convenience entry point; for sessions that also
/// query, snapshot, or need progress/cancellation, use
/// [`BitrussEngine`](crate::engine::BitrussEngine).
///
/// # Panics
///
/// On a configuration the engine rejects: BiT-PC with τ outside `(0, 1]`.
pub fn decompose(g: &BipartiteGraph, algorithm: Algorithm) -> (Decomposition, Metrics) {
    crate::engine::BitrussEngine::builder()
        .algorithm(algorithm)
        .build_borrowed(g)
        .expect("NoopObserver never cancels and the configuration is valid") // xtask:allow(no-panic-lib) one-shot wrapper, documented to panic on invalid configuration; EngineBuilder::build is the Err-returning path
        .into_parts()
}

/// [`decompose`] with an [`EngineObserver`] receiving phase events and
/// able to cancel the run.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial result is discarded.
pub fn decompose_observed(
    g: &BipartiteGraph,
    algorithm: Algorithm,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    run_algorithm(g, algorithm, None, observer)
}

/// The (2,2)-core pre-pruning wrapper around [`run_algorithm`] behind the
/// engine's `pruned` option: every butterfly lies inside the
/// (2,2)-core, so edges outside it have `φ = 0` and are dropped before
/// counting and peeling.
pub(crate) fn prune_and_run(
    g: &BipartiteGraph,
    algorithm: Algorithm,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let core = bigraph::alpha_beta_core(g, 2, 2);
    let (sub_dec, metrics) = run_algorithm(&core.graph, algorithm, histogram_bounds, observer)?;
    let mut phi = vec![0u64; g.num_edges() as usize];
    for (i, &old) in core.new_to_old.iter().enumerate() {
        phi[old.index()] = sub_dec.phi[i];
    }
    Ok((Decomposition::new(phi), metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_decomposition;

    #[test]
    fn core_pruning_preserves_phi() {
        for seed in 0..5 {
            let g = datagen::powerlaw::chung_lu(60, 60, 500, 2.2, 2.2, seed);
            let (plain, _) = decompose(&g, Algorithm::BuPlusPlus);
            for alg in [
                Algorithm::Bu,
                Algorithm::BuPlusPlus,
                Algorithm::Pc { tau: 0.2 },
            ] {
                let pruned = crate::engine::BitrussEngine::builder()
                    .algorithm(alg)
                    .pruned(true)
                    .build_borrowed(&g)
                    .unwrap();
                assert_eq!(plain.phi, pruned.phi(), "seed {seed} {}", alg.name());
            }
        }
    }

    #[test]
    fn every_algorithm_agrees_via_the_dispatcher() {
        let g = datagen::random::uniform(12, 12, 55, 99);
        let expect = reference_decomposition(&g);
        for alg in [
            Algorithm::BsIntersection,
            Algorithm::BsPairEnumeration,
            Algorithm::Bu,
            Algorithm::BuPlus,
            Algorithm::BuPlusPlus,
            Algorithm::BuPlusPlusPar {
                threads: Threads(3),
            },
            Algorithm::parallel_auto(),
            Algorithm::BuHybrid,
            Algorithm::BuPlusPlusTwoPhase {
                threads: Threads(2),
            },
            Algorithm::two_phase_auto(),
            Algorithm::pc_default(),
            Algorithm::Pc { tau: 1.0 },
        ] {
            let (d, _) = decompose(&g, alg);
            assert_eq!(d, expect, "{}", alg.name());
        }
    }

    #[test]
    fn names_and_lineup() {
        assert_eq!(Algorithm::Bu.name(), "BU");
        assert_eq!(Algorithm::pc_default().name(), "PC");
        let lineup = Algorithm::figure9_lineup();
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup[0].name(), "BS");
    }

    #[test]
    fn display_matches_name() {
        for alg in [
            Algorithm::BsIntersection,
            Algorithm::BsPairEnumeration,
            Algorithm::Bu,
            Algorithm::BuPlus,
            Algorithm::BuPlusPlus,
            Algorithm::parallel_auto(),
            Algorithm::BuHybrid,
            Algorithm::two_phase_auto(),
            Algorithm::pc_default(),
        ] {
            assert_eq!(alg.to_string(), alg.name());
        }
    }

    #[test]
    fn from_str_parses_cli_and_paper_spellings() {
        assert_eq!("bs".parse::<Algorithm>(), Ok(Algorithm::BsIntersection));
        assert_eq!(
            "BS-pair".parse::<Algorithm>(),
            Ok(Algorithm::BsPairEnumeration)
        );
        assert_eq!("bu".parse::<Algorithm>(), Ok(Algorithm::Bu));
        assert_eq!("BU+".parse::<Algorithm>(), Ok(Algorithm::BuPlus));
        assert_eq!("bu++".parse::<Algorithm>(), Ok(Algorithm::BuPlusPlus));
        assert_eq!("bu++p".parse::<Algorithm>(), Ok(Algorithm::parallel_auto()));
        assert_eq!(
            "BU++/P".parse::<Algorithm>(),
            Ok(Algorithm::parallel_auto())
        );
        assert_eq!(
            "BU++2P".parse::<Algorithm>(),
            Ok(Algorithm::two_phase_auto())
        );
        assert_eq!("bu#".parse::<Algorithm>(), Ok(Algorithm::BuHybrid));
        assert_eq!("pc".parse::<Algorithm>(), Ok(Algorithm::pc_default()));
        let err = "bu+++".parse::<Algorithm>().unwrap_err();
        assert!(err.to_string().contains("unknown algorithm \"bu+++\""));
    }
}
