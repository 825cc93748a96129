//! Golden pins for every engine configuration: an FNV-1a digest of φ,
//! the exact `support_updates` and the exact `iterations` on a fixed
//! set of graphs. The numbers were recorded from the per-variant peel
//! loops that preceded the shared peel kernel, so any change to the
//! kernel that moves a single support write shows up here. BiT-BU++2P
//! is pinned separately, with its band bounds and band assignment, at
//! two band counts and four thread counts.
//!
//! Relational invariants between the variants (§V-B's ablation) are
//! asserted alongside the pins.

use bitruss::graph::fnv::fnv1a;
use bitruss::{decompose, Algorithm, BipartiteGraph, GraphBuilder, Metrics, NoopObserver, Threads};

/// The engine configurations the pins cover, in table column order.
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
        Algorithm::pc_default(),
        Algorithm::Pc { tau: 1.0 },
    ]
}

/// The author–paper network of the paper's Figure 1.
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

/// The pinned graphs: Figure 1, three uniform and three Chung–Lu graphs.
fn graphs() -> Vec<(&'static str, BipartiteGraph)> {
    use bitruss::workloads::{powerlaw, random};
    vec![
        ("fig1", fig1()),
        ("uniform-1", random::uniform(14, 14, 70, 1)),
        ("uniform-2", random::uniform(14, 14, 70, 2)),
        ("uniform-3", random::uniform(14, 14, 70, 3)),
        ("chung-lu-1", powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 1)),
        ("chung-lu-2", powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 2)),
        ("chung-lu-3", powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 3)),
    ]
}

fn phi_digest(phi: &[u64]) -> u64 {
    let bytes: Vec<u8> = phi.iter().flat_map(|p| p.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// `(φ digest, support_updates, iterations)` of one configuration.
type Pin = (u64, u64, u32);

/// The pins per graph, one entry per [`lineup`] configuration.
const GOLDEN: &[(&str, [Pin; 9])] = &[
    (
        "fig1",
        [
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 1, 1),
            (0x8c46231e4a2d9c44, 0, 3),
            (0x8c46231e4a2d9c44, 0, 2),
        ],
    ),
    (
        "uniform-1",
        [
            (0x8834259a974790e2, 211, 1),
            (0x8834259a974790e2, 211, 1),
            (0x8834259a974790e2, 197, 1),
            (0x8834259a974790e2, 152, 1),
            (0x8834259a974790e2, 198, 1),
            (0x8834259a974790e2, 152, 1),
            (0x8834259a974790e2, 152, 1),
            (0x8834259a974790e2, 143, 10),
            (0x8834259a974790e2, 198, 2),
        ],
    ),
    (
        "uniform-2",
        [
            (0x95dee4ab8ab56f40, 255, 1),
            (0x95dee4ab8ab56f40, 255, 1),
            (0x95dee4ab8ab56f40, 242, 1),
            (0x95dee4ab8ab56f40, 195, 1),
            (0x95dee4ab8ab56f40, 234, 1),
            (0x95dee4ab8ab56f40, 195, 1),
            (0x95dee4ab8ab56f40, 195, 1),
            (0x95dee4ab8ab56f40, 96, 13),
            (0x95dee4ab8ab56f40, 234, 2),
        ],
    ),
    (
        "uniform-3",
        [
            (0xa99dcf50972c2c04, 257, 1),
            (0xa99dcf50972c2c04, 257, 1),
            (0xa99dcf50972c2c04, 245, 1),
            (0xa99dcf50972c2c04, 183, 1),
            (0xa99dcf50972c2c04, 243, 1),
            (0xa99dcf50972c2c04, 183, 1),
            (0xa99dcf50972c2c04, 183, 1),
            (0xa99dcf50972c2c04, 206, 12),
            (0xa99dcf50972c2c04, 243, 2),
        ],
    ),
    (
        "chung-lu-1",
        [
            (0xdc7e06f8f15020e5, 202970, 1),
            (0xdc7e06f8f15020e5, 202970, 1),
            (0xdc7e06f8f15020e5, 158148, 1),
            (0xdc7e06f8f15020e5, 51698, 1),
            (0xdc7e06f8f15020e5, 116440, 1),
            (0xdc7e06f8f15020e5, 51698, 1),
            (0xdc7e06f8f15020e5, 51698, 1),
            (0xdc7e06f8f15020e5, 18926, 47),
            (0xdc7e06f8f15020e5, 116440, 2),
        ],
    ),
    (
        "chung-lu-2",
        [
            (0x8b104ceb469f28df, 214164, 1),
            (0x8b104ceb469f28df, 214164, 1),
            (0x8b104ceb469f28df, 169417, 1),
            (0x8b104ceb469f28df, 55189, 1),
            (0x8b104ceb469f28df, 134723, 1),
            (0x8b104ceb469f28df, 55189, 1),
            (0x8b104ceb469f28df, 55189, 1),
            (0x8b104ceb469f28df, 17404, 50),
            (0x8b104ceb469f28df, 134723, 2),
        ],
    ),
    (
        "chung-lu-3",
        [
            (0x18aa5dd6014b1bb3, 201260, 1),
            (0x18aa5dd6014b1bb3, 201260, 1),
            (0x18aa5dd6014b1bb3, 158622, 1),
            (0x18aa5dd6014b1bb3, 51962, 1),
            (0x18aa5dd6014b1bb3, 124452, 1),
            (0x18aa5dd6014b1bb3, 51962, 1),
            (0x18aa5dd6014b1bb3, 51962, 1),
            (0x18aa5dd6014b1bb3, 19402, 48),
            (0x18aa5dd6014b1bb3, 124452, 2),
        ],
    ),
];

fn run(g: &BipartiteGraph, alg: Algorithm) -> (u64, Metrics) {
    let (d, m) = decompose(g, alg);
    (phi_digest(&d.phi), m)
}

#[test]
fn golden_counts_are_pinned() {
    let graphs = graphs();
    assert_eq!(GOLDEN.len(), graphs.len());
    for ((name, g), (pinned_name, pins)) in graphs.iter().zip(GOLDEN) {
        assert_eq!(name, pinned_name);
        for (alg, &(digest, updates, iterations)) in lineup().into_iter().zip(pins) {
            let (got_digest, m) = run(g, alg);
            assert_eq!(got_digest, digest, "{name} {alg}: φ digest");
            assert_eq!(m.support_updates, updates, "{name} {alg}: support_updates");
            assert_eq!(m.iterations, iterations, "{name} {alg}: iterations");
        }
    }
}

#[test]
fn ablation_relations_hold() {
    for (name, g) in graphs() {
        let (bu_digest, bu) = run(&g, Algorithm::Bu);
        let (plus_digest, plus) = run(&g, Algorithm::BuPlus);
        let (pp_digest, pp) = run(&g, Algorithm::BuPlusPlus);
        let (hybrid_digest, hybrid) = run(&g, Algorithm::BuHybrid);
        assert_eq!(plus_digest, bu_digest, "{name}");
        assert_eq!(pp_digest, bu_digest, "{name}");
        assert_eq!(hybrid_digest, bu_digest, "{name}");
        // BU# and BU+ both aggregate to one write per affected edge per
        // batch, which never exceeds per-edge BU's writes.
        assert_eq!(hybrid.support_updates, plus.support_updates, "{name}");
        assert!(plus.support_updates <= bu.support_updates, "{name}");
        // BU++ writes once per touched (bloom, edge) pair. That beats BU
        // wherever blooms are large, but on a near-uniform graph with
        // small blooms it can lose by a write (uniform-1: 198 vs 197), so
        // the inequality is asserted on Figure 1 and the skewed graphs.
        if !name.starts_with("uniform") {
            assert!(pp.support_updates <= bu.support_updates, "{name}");
        }
        // BU++/P is BU# with phase 2 fanned out: same φ and count at
        // every thread count.
        for t in [1, 2, 3, 8] {
            let (par_digest, par) = run(
                &g,
                Algorithm::BuPlusPlusPar {
                    threads: Threads(t),
                },
            );
            assert_eq!(par_digest, hybrid_digest, "{name} threads {t}");
            assert_eq!(
                par.support_updates, hybrid.support_updates,
                "{name} threads {t}"
            );
        }
    }
}

/// BiT-BU++2P pin: `(φ digest, support_updates, band bounds, band digest)`,
/// the band digest being FNV-1a over `band_of_edge` as little-endian
/// `u32`s.
type TwoPhasePin = (u64, u64, &'static [u64], u64);

/// BiT-BU++2P pins per graph at `[DEFAULT_NUM_BANDS, 3]` bands, recorded
/// from the engine whose coarse scan finished (and fanned its sub-rounds
/// out) before any band peel started. Every value is thread-independent.
const GOLDEN_2P: &[(&str, [TwoPhasePin; 2])] = &[
    (
        "fig1",
        [
            (0x8c46231e4a2d9c44, 1, &[0, 1, 2], 0xd6043bb0ceb20034),
            (0x8c46231e4a2d9c44, 1, &[1, 2], 0x300b422cb3dba165),
        ],
    ),
    (
        "uniform-1",
        [
            (
                0x8834259a974790e2,
                266,
                &[1, 2, 4, 5, 6, 7, 8, 9, 10, 11],
                0xcb97f0dd89b98605,
            ),
            (0x8834259a974790e2, 219, &[5, 8], 0x09bd80efa0653705),
        ],
    ),
    (
        "uniform-2",
        [
            (
                0x95dee4ab8ab56f40,
                274,
                &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14],
                0x7e017cfaf28a0e76,
            ),
            (0x95dee4ab8ab56f40, 266, &[6, 10], 0x09bd80efa0653705),
        ],
    ),
    (
        "uniform-3",
        [
            (
                0xa99dcf50972c2c04,
                333,
                &[1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                0xf35f9b20f5ff4a45,
            ),
            (0xa99dcf50972c2c04, 285, &[5, 9], 0x09bd80efa0653705),
        ],
    ),
    (
        "chung-lu-1",
        [
            (
                0xdc7e06f8f15020e5,
                26853,
                &[
                    53, 78, 99, 119, 139, 159, 181, 199, 226, 248, 280, 319, 367, 423, 532,
                ],
                0x10332f92088499d1,
            ),
            (0xdc7e06f8f15020e5, 54106, &[145, 270], 0x1c67e06ca34948a5),
        ],
    ),
    (
        "chung-lu-2",
        [
            (
                0x8b104ceb469f28df,
                25932,
                &[
                    52, 82, 104, 127, 149, 171, 191, 218, 245, 274, 306, 343, 392, 466, 586,
                ],
                0x6789b9a1b9212132,
            ),
            (0x8b104ceb469f28df, 58104, &[155, 295], 0x1c67e06ca34948a5),
        ],
    ),
    (
        "chung-lu-3",
        [
            (
                0x18aa5dd6014b1bb3,
                27094,
                &[
                    51, 75, 98, 119, 137, 160, 179, 203, 226, 247, 278, 318, 362, 436, 543,
                ],
                0x6c970c117bb2f807,
            ),
            (0x18aa5dd6014b1bb3, 54459, &[145, 268], 0x1c67e06ca34948a5),
        ],
    ),
];

#[test]
fn two_phase_pins_hold_at_every_thread_count() {
    use bitruss::decomposition::{bit_bu_pp_2p_with_outcome, DEFAULT_NUM_BANDS};
    let graphs = graphs();
    assert_eq!(GOLDEN_2P.len(), graphs.len());
    for ((name, g), (pinned_name, pins)) in graphs.iter().zip(GOLDEN_2P) {
        assert_eq!(name, pinned_name);
        for (bands, &(digest, updates, bounds, band_digest)) in
            [DEFAULT_NUM_BANDS, 3].into_iter().zip(pins)
        {
            for t in [1, 2, 3, 8] {
                let (d, m, outcome) =
                    bit_bu_pp_2p_with_outcome(g, Threads(t), bands, &NoopObserver).unwrap();
                let at = format!("{name} bands {bands} threads {t}");
                assert_eq!(phi_digest(&d.phi), digest, "{at}: φ digest");
                assert_eq!(m.support_updates, updates, "{at}: support_updates");
                assert_eq!(outcome.bounds, bounds, "{at}: bounds");
                let band_bytes: Vec<u8> = outcome
                    .band_of_edge
                    .iter()
                    .flat_map(|p| p.to_le_bytes())
                    .collect();
                assert_eq!(fnv1a(&band_bytes), band_digest, "{at}: band digest");
            }
        }
    }
}
