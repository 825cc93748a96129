//! Property suite for the two-phase partition-parallel engine
//! (BiT-BU++2P, `bitruss_core::partition`).
//!
//! Three contracts, each a theorem the implementation must uphold:
//!
//! 1. **Bit-identity** — φ from the two-phase engine equals sequential
//!    BiT-BU++ for threads ∈ {1, 2, 4, 8} and several band counts, on
//!    both uniform and skewed (hub-heavy) random graphs.
//! 2. **Band-assignment soundness** — every edge's final φ lies inside
//!    the band the coarse scan assigned it, or the stitch log records
//!    its migration (which a correct build never needs).
//! 3. **Cancellation** — cancelling mid-phase-2 surfaces
//!    `Err(Cancelled)` out of every concurrently peeling band worker,
//!    never a partial result, at whatever point the poll lands; and
//!    cancelling during the coarse scan, while band workers wait on the
//!    job queue, returns `Err(Cancelled)` instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bitruss::decomposition::{bit_bu_pp_2p_with_outcome, validate_decomposition, NoopObserver};
use bitruss::{
    decompose, Algorithm, BipartiteGraph, Decomposition, EngineObserver, Metrics, Phase, Threads,
};
use proptest::prelude::*;

/// Random bipartite graph strategy: up to `max_n`×`max_n` vertices with a
/// variable number of edges.
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = BipartiteGraph> {
    (2..=max_n, 2..=max_n, 0..=max_m, any::<u64>())
        .prop_map(|(nu, nl, m, seed)| bitruss::workloads::random::uniform(nu, nl, m, seed))
}

/// Skewed bipartite graph strategy (hubs present) — the regime band
/// partitioning exists for.
fn arb_skewed(max_n: u32, max_m: usize) -> impl Strategy<Value = BipartiteGraph> {
    (4..=max_n, 4..=max_n, 8..=max_m, any::<u64>(), 15..30u32).prop_map(
        |(nu, nl, m, seed, alpha10)| {
            bitruss::workloads::powerlaw::chung_lu(
                nu,
                nl,
                m,
                f64::from(alpha10) / 10.0,
                f64::from(alpha10) / 10.0,
                seed,
            )
        },
    )
}

/// BiT-BU++2P with an explicit band count, without the band audit.
fn two_phase(g: &BipartiteGraph, threads: usize, bands: usize) -> (Decomposition, Metrics) {
    let (d, m, _) = bit_bu_pp_2p_with_outcome(g, Threads(threads), bands, &NoopObserver).unwrap();
    (d, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_phase_is_bit_identical_to_sequential(g in arb_graph(16, 70)) {
        let (seq, _) = decompose(&g, Algorithm::BuPlusPlus);
        for threads in [1usize, 2, 4, 8] {
            let (d, m) = two_phase(&g, threads, 8);
            prop_assert_eq!(&d, &seq, "threads {}", threads);
            prop_assert!(m.bands >= 1);
        }
        validate_decomposition(&g, &seq).unwrap();
    }

    #[test]
    fn two_phase_is_bit_identical_on_skewed_graphs(g in arb_skewed(32, 250)) {
        let (seq, _) = decompose(&g, Algorithm::BuPlusPlus);
        for (threads, bands) in [(1usize, 16usize), (2, 4), (4, 16), (8, 3)] {
            let (d, _) = two_phase(&g, threads, bands);
            prop_assert_eq!(&d, &seq, "threads {} bands {}", threads, bands);
        }
    }

    #[test]
    fn band_assignment_is_sound(g in arb_skewed(28, 200)) {
        let (d, _, outcome) =
            bit_bu_pp_2p_with_outcome(&g, Threads(4), 8, &NoopObserver).unwrap();
        // The stitch log must stay empty (exactness is a theorem, not a
        // repair loop), and with it empty, every φ must sit in its band.
        prop_assert!(outcome.stitch.migrations.is_empty());
        prop_assert_eq!(outcome.band_of_edge.len(), g.num_edges() as usize);
        for e in 0..g.num_edges() as usize {
            let p = outcome.band_of_edge[e];
            prop_assert!(
                outcome.in_band(p, d.phi[e]),
                "edge {} φ={} escaped band {} {:?}",
                e, d.phi[e], p, outcome.band_range(p)
            );
        }
        // Band ranges tile the φ axis: bounds strictly ascend.
        prop_assert!(outcome.bounds.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Observer that flips to cancelled on the `poll`-th `is_cancelled` call
/// at or after the peeling phase starts — landing the cancellation at an
/// arbitrary point inside the concurrently running band workers.
struct CancelInPeel {
    peeling: AtomicBool,
    polls: AtomicU64,
    after: u64,
}

impl EngineObserver for CancelInPeel {
    fn on_phase_start(&self, phase: Phase, _total: u64) {
        if phase == Phase::Peeling {
            self.peeling.store(true, Ordering::SeqCst);
        }
    }

    fn is_cancelled(&self) -> bool {
        self.peeling.load(Ordering::SeqCst)
            && self.polls.fetch_add(1, Ordering::SeqCst) >= self.after
    }
}

#[test]
fn cancellation_mid_phase_2_errors_from_every_band() {
    let g = bitruss::workloads::powerlaw::chung_lu(70, 70, 900, 1.9, 1.9, 42);
    // The graph is big enough that every band has at least one batch, so
    // a cancellation at poll 0 hits whichever band worker checks first —
    // and later polls hit workers mid-band. All must surface Cancelled.
    let mut cancelled = 0;
    for after in [0u64, 1, 3, 9, 27] {
        let obs = CancelInPeel {
            peeling: AtomicBool::new(false),
            polls: AtomicU64::new(0),
            after,
        };
        // A very late poll can miss the run entirely; that's fine as
        // long as early polls do cancel.
        if let Err(e) = bit_bu_pp_2p_with_outcome(&g, Threads(4), 8, &obs) {
            assert!(
                matches!(e, bitruss::graph::Error::Cancelled),
                "unexpected error: {e}"
            );
            cancelled += 1;
        }
    }
    assert!(
        cancelled >= 3,
        "only {cancelled}/5 cancellation points fired"
    );
}

#[test]
fn observer_sees_partition_and_stitch_phases() {
    use std::sync::Mutex;
    #[derive(Default)]
    struct PhaseRecorder(Mutex<Vec<(Phase, bool)>>);
    impl EngineObserver for PhaseRecorder {
        fn on_phase_start(&self, phase: Phase, _total: u64) {
            self.0.lock().unwrap().push((phase, true));
        }
        fn on_phase_end(&self, phase: Phase) {
            self.0.lock().unwrap().push((phase, false));
        }
    }
    let g = bitruss::workloads::random::uniform(14, 14, 60, 5);
    let obs = PhaseRecorder::default();
    bit_bu_pp_2p_with_outcome(&g, Threads(2), 4, &obs).unwrap();
    let events = obs.0.into_inner().unwrap();
    for phase in [Phase::Partition, Phase::Peeling, Phase::Stitch] {
        assert!(events.contains(&(phase, true)), "{phase:?} never started");
        assert!(events.contains(&(phase, false)), "{phase:?} never ended");
    }
    // Partition strictly precedes peeling, peeling precedes stitch.
    let pos = |p| events.iter().position(|&(ph, s)| ph == p && s).unwrap();
    assert!(pos(Phase::Partition) < pos(Phase::Peeling));
    assert!(pos(Phase::Peeling) < pos(Phase::Stitch));
}

/// Observer that cancels on the `after`-th poll inside
/// [`Phase::Partition`] and stays cancelled from then on.
struct CancelInPartition {
    partition: AtomicBool,
    fired: AtomicBool,
    polls: AtomicU64,
    after: u64,
}

impl EngineObserver for CancelInPartition {
    fn on_phase_start(&self, phase: Phase, _total: u64) {
        if phase == Phase::Partition {
            self.partition.store(true, Ordering::SeqCst);
        }
    }

    fn on_phase_end(&self, phase: Phase) {
        if phase == Phase::Partition {
            self.partition.store(false, Ordering::SeqCst);
        }
    }

    fn is_cancelled(&self) -> bool {
        if self.fired.load(Ordering::SeqCst) {
            return true;
        }
        let fire = self.partition.load(Ordering::SeqCst)
            && self.polls.fetch_add(1, Ordering::SeqCst) >= self.after;
        if fire {
            self.fired.store(true, Ordering::SeqCst);
        }
        fire
    }
}

#[test]
fn cancellation_during_partition_never_hangs() {
    // Early polls land while the first bands are still being scanned,
    // so band workers sit idle on the job queue; later ones race the
    // scan against workers peeling released bands. Each run is watched:
    // a worker left waiting would hang the run, which fails the test
    // instead of the suite.
    for threads in [2usize, 4] {
        for after in [0u64, 1, 2, 3, 5, 8, 13] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let g = bitruss::workloads::powerlaw::chung_lu(70, 70, 900, 1.9, 1.9, 42);
                let obs = CancelInPartition {
                    partition: AtomicBool::new(false),
                    fired: AtomicBool::new(false),
                    polls: AtomicU64::new(0),
                    after,
                };
                let run = bit_bu_pp_2p_with_outcome(
                    &g,
                    Threads(threads),
                    bitruss::decomposition::DEFAULT_NUM_BANDS,
                    &obs,
                );
                let _ = tx.send((obs.fired.load(Ordering::SeqCst), run.map(|_| ())));
            });
            let (fired, run) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("threads {threads} after {after}: run hung"));
            assert!(fired, "threads {threads} after {after}: never cancelled");
            assert!(
                matches!(run, Err(bitruss::graph::Error::Cancelled)),
                "threads {threads} after {after}: {run:?}"
            );
        }
    }
}
