//! Integration tests for the [`BitrussEngine`] session API: randomized
//! agreement with the reference decomposition for every algorithm,
//! snapshot round-trips through `Engine::from_snapshot`, and cooperative
//! cancellation surfacing `Error::Cancelled` mid-peel without panicking.
//! The exact update counts of every configuration are pinned in
//! `tests/golden_counts.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bitruss::decomposition::reference_decomposition;
use bitruss::graph::Error;
use bitruss::{Algorithm, BitrussEngine, EngineObserver, HierarchyMode, Phase, Threads};
use proptest::prelude::*;

/// Every algorithm the engine dispatches.
fn lineup() -> Vec<Algorithm> {
    vec![
        Algorithm::BsIntersection,
        Algorithm::BsPairEnumeration,
        Algorithm::Bu,
        Algorithm::BuPlus,
        Algorithm::BuPlusPlus,
        Algorithm::BuPlusPlusPar {
            threads: Threads(3),
        },
        Algorithm::BuHybrid,
        Algorithm::BuPlusPlusTwoPhase {
            threads: Threads(2),
        },
        Algorithm::pc_default(),
        Algorithm::Pc { tau: 1.0 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance gate: the engine's φ equals the reference peel for
    /// every algorithm.
    #[test]
    fn engine_matches_reference_decomposition(
        nu in 3..14u32,
        nl in 3..14u32,
        m in 0..70usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let expect = reference_decomposition(&g);
        for alg in lineup() {
            let session = BitrussEngine::builder()
                .algorithm(alg)
                .build_borrowed(&g)
                .expect("no observer: run cannot fail");
            prop_assert_eq!(session.phi(), &expect.phi[..], "{}", alg);
            prop_assert_eq!(session.algorithm(), Some(alg));
        }
    }

    /// The engine's hierarchy-backed queries agree with Decomposition
    /// rescans on random graphs, for every level present.
    #[test]
    fn engine_queries_match_decomposition_rescans(
        nu in 3..12u32,
        nl in 3..12u32,
        m in 0..60usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
        let d = session.decomposition().clone();
        for k in 0..=session.max_bitruss() {
            prop_assert_eq!(
                session.k_bitruss_edges(k).unwrap(),
                d.k_bitruss_edges(k)
            );
            prop_assert_eq!(
                session.k_bitruss_count(k).unwrap(),
                d.k_bitruss_edges(k).len()
            );
            prop_assert_eq!(
                session.communities(k).unwrap().len(),
                d.communities(&g, k).len()
            );
        }
        prop_assert_eq!(session.level_sizes(), d.level_sizes());
    }

    /// Snapshot round-trip through the engine: save → from_snapshot
    /// preserves φ, the graph shape, and every hierarchy answer.
    #[test]
    fn snapshot_round_trip_via_from_snapshot(
        nu in 3..12u32,
        nl in 3..12u32,
        m in 0..60usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let session = BitrussEngine::builder()
            .hierarchy(HierarchyMode::Eager)
            .build_borrowed(&g)
            .unwrap();
        let mut bytes = Vec::new();
        session.save_snapshot_to(&mut bytes).unwrap();
        let resumed = BitrussEngine::from_snapshot_reader(&bytes[..]).unwrap();
        prop_assert_eq!(resumed.phi(), session.phi());
        prop_assert_eq!(resumed.graph().num_edges(), g.num_edges());
        prop_assert_eq!(resumed.graph().num_upper(), g.num_upper());
        prop_assert_eq!(resumed.graph().num_lower(), g.num_lower());
        prop_assert!(resumed.metrics().is_none());
        for k in 0..=session.max_bitruss() {
            prop_assert_eq!(
                resumed.k_bitruss_edges(k).unwrap(),
                session.k_bitruss_edges(k).unwrap()
            );
        }
    }
}

#[test]
fn snapshot_round_trip_via_file() {
    let g = bitruss::workloads::random::uniform(14, 14, 70, 77);
    let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
    let path =
        std::env::temp_dir().join(format!("bitruss-engine-test-{}.snap", std::process::id()));
    session.save_snapshot(&path).unwrap();
    let resumed = BitrussEngine::from_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.phi(), session.phi());
    assert_eq!(
        resumed.k_bitruss_count(1).unwrap(),
        session.k_bitruss_count(1).unwrap()
    );
}

/// Observer that lets counting and index construction finish, then
/// requests cancellation as soon as the peeling phase has started — so
/// `Error::Cancelled` must surface *mid-peel*.
#[derive(Default)]
struct CancelMidPeel {
    peeling_started: AtomicBool,
    polls_after_peeling: AtomicU64,
}

impl EngineObserver for CancelMidPeel {
    fn on_phase_start(&self, phase: Phase, _total: u64) {
        if phase == Phase::Peeling {
            self.peeling_started.store(true, Ordering::Relaxed);
        }
    }

    fn is_cancelled(&self) -> bool {
        if self.peeling_started.load(Ordering::Relaxed) {
            self.polls_after_peeling.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[test]
fn cancellation_surfaces_mid_peel_without_panicking() {
    // Big enough that even the per-pop engines (BS, BU) reach their
    // CHECK_INTERVAL poll inside the peel loop.
    let g = bitruss::workloads::powerlaw::chung_lu(220, 220, 3_000, 1.9, 1.9, 4);
    for alg in [
        Algorithm::BsIntersection,
        Algorithm::Bu,
        Algorithm::BuPlus,
        Algorithm::BuPlusPlus,
        Algorithm::BuPlusPlusPar {
            threads: Threads(2),
        },
        Algorithm::BuHybrid,
        Algorithm::pc_default(),
    ] {
        let observer = Arc::new(CancelMidPeel::default());
        let err = BitrussEngine::builder()
            .algorithm(alg)
            .progress(observer.clone())
            .build_borrowed(&g)
            .expect_err("cancellation must surface as an error");
        assert!(matches!(err, Error::Cancelled), "{alg}: {err}");
        assert!(
            observer.peeling_started.load(Ordering::Relaxed),
            "{alg}: peeling never started"
        );
        assert!(
            observer.polls_after_peeling.load(Ordering::Relaxed) > 0,
            "{alg}: never polled after peeling started"
        );
    }
}

#[test]
fn cancellation_before_any_work() {
    struct Always;
    impl EngineObserver for Always {
        fn is_cancelled(&self) -> bool {
            true
        }
    }
    let g = bitruss::workloads::random::uniform(10, 10, 40, 1);
    let err = BitrussEngine::builder()
        .progress(Arc::new(Always))
        .build_borrowed(&g)
        .expect_err("pre-cancelled run must fail");
    assert!(matches!(err, Error::Cancelled));
}

#[test]
fn cancellation_covers_the_lazy_hierarchy_build() {
    // Cancel only *after* the decomposition finished: the run succeeds,
    // the first hierarchy query fails cleanly instead of panicking.
    struct CancelLater(AtomicBool);
    impl EngineObserver for CancelLater {
        fn is_cancelled(&self) -> bool {
            self.0.load(Ordering::Relaxed)
        }
    }
    let observer = Arc::new(CancelLater(AtomicBool::new(false)));
    let g = bitruss::workloads::random::uniform(10, 10, 40, 2);
    let session = BitrussEngine::builder()
        .progress(observer.clone())
        .build_borrowed(&g)
        .expect("not cancelled yet");
    observer.0.store(true, Ordering::Relaxed);
    assert!(matches!(session.k_bitruss_count(1), Err(Error::Cancelled)));
    observer.0.store(false, Ordering::Relaxed);
    assert!(session.k_bitruss_count(1).is_ok());
}

#[test]
fn observer_sees_ordered_phases() {
    // The sequential BU++ run reports Counting → IndexBuild → Peeling.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<&'static str>>, AtomicU64);
    impl EngineObserver for Recorder {
        fn on_phase_start(&self, phase: Phase, _total: u64) {
            self.0.lock().unwrap().push(phase.name());
        }
        fn on_phase_progress(&self, _phase: Phase, _done: u64, _total: u64) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }
    let observer = Arc::new(Recorder::default());
    let g = bitruss::workloads::powerlaw::chung_lu(150, 150, 2_500, 1.9, 1.9, 11);
    let session = BitrussEngine::builder()
        .algorithm(Algorithm::BuPlusPlus)
        .hierarchy(HierarchyMode::Eager)
        .progress(observer.clone())
        .build_borrowed(&g)
        .unwrap();
    assert!(session.max_bitruss() > 0);
    let phases = observer.0.lock().unwrap().clone();
    assert_eq!(
        phases,
        vec!["counting", "index-build", "peeling", "hierarchy-build"]
    );
    assert!(
        observer.1.load(Ordering::Relaxed) > 0,
        "expected progress ticks on a 2.5k-edge graph"
    );
}

/// `community` replies read three counts off the hierarchy forest; they
/// must render byte-identically to the reply built from the materialized
/// community, for every edge at k ∈ {0, 1, φ/2, φ, φ+1} and for vertex
/// pairs with no edge between them.
#[test]
fn community_replies_match_the_materialized_community() {
    use bitruss::QueryAnswer;

    let fig1 = bitruss::GraphBuilder::new()
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
        .unwrap();
    let chung_lu = bitruss::workloads::powerlaw::chung_lu(40, 40, 400, 1.9, 1.9, 3);
    for g in [fig1, chung_lu] {
        let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
        let (mut not_in_truss, mut no_such_edge) = (0, 0);
        for u in 0..g.num_upper() {
            for v in 0..g.num_lower() {
                let line_for = |k| session.query_line(&format!("community {u} {v} {k}"));
                let Some(e) = g.edge_between(g.upper(u), g.lower(v)) else {
                    let want = QueryAnswer::NoSuchEdge {
                        upper: u.into(),
                        lower: v.into(),
                        k: 1,
                    };
                    assert_eq!(line_for(1).unwrap(), Some(want.to_string()));
                    no_such_edge += 1;
                    continue;
                };
                let phi = session.phi()[e.index()];
                for k in [0, 1, phi / 2, phi, phi + 1] {
                    let want = match session.community_of(e, k).unwrap() {
                        None => {
                            not_in_truss += 1;
                            QueryAnswer::NotInTruss {
                                upper: u.into(),
                                lower: v.into(),
                                k,
                                phi,
                            }
                        }
                        Some(c) => QueryAnswer::Community {
                            upper: u.into(),
                            lower: v.into(),
                            k,
                            num_upper: c.upper_members(&g).count(),
                            num_lower: c.lower_members(&g).count(),
                            num_edges: c.edges.len(),
                        },
                    };
                    assert_eq!(
                        line_for(k).unwrap(),
                        Some(want.to_string()),
                        "({u}, {v}) k={k}"
                    );
                }
            }
        }
        assert!(not_in_truss > 0 && no_such_edge > 0);
    }
}
