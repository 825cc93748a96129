//! Integration tests for the bitruss hierarchy index and binary
//! snapshots: randomized cross-checks that `BitrussHierarchy` answers
//! every query identically to the `Decomposition` rescans it replaces,
//! and that snapshot corruption is always detected.

use bitruss::graph::BipartiteGraph;
use bitruss::graph::GraphBuilder;
use bitruss::{decompose, Algorithm, BitrussHierarchy, Community, CommunitySize, EdgeId};
use proptest::prelude::*;

/// Sorts a community list into a canonical order: both implementations
/// sort by size descending but leave ties unspecified.
fn canon(mut cs: Vec<Community>) -> Vec<Community> {
    cs.sort_by_key(|c| c.edges[0]);
    cs
}

/// The counts of a materialized community, as a `community` query
/// reports them.
fn size_of(g: &BipartiteGraph, c: &Community) -> CommunitySize {
    CommunitySize {
        num_upper: c.upper_members(g).count(),
        num_lower: c.lower_members(g).count(),
        num_edges: c.edges.len(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every hierarchy query agrees with the O(m) Decomposition scans,
    /// at every interesting k (each distinct level, the gaps between
    /// levels, 0, and past the maximum).
    #[test]
    fn hierarchy_matches_decomposition_scans(
        nu in 2..13u32,
        nl in 2..13u32,
        m in 0..80usize,
        extra in 0..4u32,
        seed in any::<u64>(),
    ) {
        let base = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let g = GraphBuilder::new()
            .with_upper(base.num_upper() + extra)
            .with_lower(base.num_lower() + extra)
            .add_edges(base.edge_pairs())
            .build()
            .unwrap();
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();

        prop_assert_eq!(h.max_bitruss(), d.max_bitruss());
        prop_assert_eq!(h.level_sizes(), d.level_sizes());
        prop_assert_eq!(h.levels(), &d.levels()[..]);

        let mut ks: Vec<u64> = d.levels();
        ks.extend(d.levels().iter().map(|k| k + 1));
        ks.extend(d.levels().iter().map(|k| k / 2));
        ks.push(0);
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            let want = d.k_bitruss_edges(k);
            prop_assert_eq!(h.k_bitruss_count(k), want.len(), "count k={}", k);
            prop_assert_eq!(h.k_bitruss_edges(k), want, "edges k={}", k);

            let scans = d.communities(&g, k);
            prop_assert_eq!(
                canon(h.communities(&g, k)),
                canon(scans.clone()),
                "communities k={}",
                k
            );
            for e in g.edges() {
                let direct = h.community_of(&g, e, k);
                let scanned = scans.iter().find(|c| c.edges.contains(&e)).cloned();
                prop_assert_eq!(&direct, &scanned, "community_of k={} e={}", k, e);
                prop_assert_eq!(
                    h.community_size(e, k),
                    direct.as_ref().map(|c| size_of(&g, c)),
                    "community_size k={} e={}",
                    k,
                    e
                );
            }
        }

        for v in g.vertices() {
            let want = g.neighbors(v).map(|(_, e)| d.bitruss_number(e)).max();
            prop_assert_eq!(h.max_k(v), want, "max_k {}", v);
        }
        for e in g.edges() {
            prop_assert_eq!(h.phi_of(e), d.bitruss_number(e));
        }
    }

    /// A hierarchy loaded from a snapshot answers exactly like the one it
    /// was built from (the full query surface, not just field equality).
    #[test]
    fn loaded_hierarchy_serves_identically(
        nu in 2..10u32,
        nl in 2..10u32,
        m in 1..60usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        let mut buf = Vec::new();
        bitruss::write_snapshot(&g, &d, Some(&h), &mut buf).unwrap();
        let snap = bitruss::read_snapshot(buf.as_slice()).unwrap();
        let h2 = snap.hierarchy.unwrap();
        for k in d.levels() {
            prop_assert_eq!(h.k_bitruss_edges(k), h2.k_bitruss_edges(k));
            prop_assert_eq!(
                canon(h.communities(&snap.graph, k)),
                canon(h2.communities(&snap.graph, k))
            );
            for e in g.edges() {
                let size = h2.community_size(e, k);
                prop_assert_eq!(size, h.community_size(e, k), "k={} e={}", k, e);
                prop_assert_eq!(
                    size,
                    h2.community_of(&snap.graph, e, k).map(|c| size_of(&snap.graph, &c)),
                    "k={} e={}",
                    k,
                    e
                );
            }
        }
        prop_assert_eq!(h2.community_size(EdgeId(g.num_edges()), 0), None);
    }

    /// Randomized corruption never panics and never yields a wrong
    /// snapshot: flipping any byte or truncating anywhere must error.
    #[test]
    fn corrupted_snapshots_are_rejected(
        nu in 2..8u32,
        nl in 2..8u32,
        m in 1..40usize,
        seed in any::<u64>(),
        victim in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        let mut buf = Vec::new();
        bitruss::write_snapshot(&g, &d, Some(&h), &mut buf).unwrap();

        let mut flipped = buf.clone();
        let at = (victim % flipped.len() as u64) as usize;
        flipped[at] ^= 1 + (victim >> 32) as u8 % 255;
        prop_assert!(bitruss::read_snapshot(flipped.as_slice()).is_err());

        let cut = (victim % buf.len() as u64) as usize;
        prop_assert!(bitruss::read_snapshot(&buf[..cut]).is_err());
    }
}

/// The doc-level acceptance check: a persisted decomposition of a graph
/// with isolated vertices round-trips to an identical `(graph, φ)` pair
/// through *both* formats.
#[test]
fn both_formats_preserve_isolated_vertices() {
    let g = GraphBuilder::new()
        .with_upper(20)
        .with_lower(17)
        .add_edges([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (5, 9)])
        .build()
        .unwrap();
    let (d, _) = decompose(&g, Algorithm::BuPlusPlus);

    let mut text = Vec::new();
    bitruss::write_decomposition(&g, &d, &mut text).unwrap();
    let (gt, dt) = bitruss::read_decomposition(text.as_slice()).unwrap();
    assert_eq!((gt.num_upper(), gt.num_lower()), (20, 17));
    assert_eq!(gt.edge_pairs(), g.edge_pairs());
    assert_eq!(dt, d);

    let mut bin = Vec::new();
    bitruss::write_snapshot(&g, &d, None, &mut bin).unwrap();
    let snap = bitruss::read_snapshot(bin.as_slice()).unwrap();
    assert_eq!((snap.graph.num_upper(), snap.graph.num_lower()), (20, 17));
    assert_eq!(snap.graph.edge_pairs(), g.edge_pairs());
    assert_eq!(snap.decomposition, d);
}

/// Cross-format agreement: text and binary readers reconstruct the same
/// pair from the same decomposition.
#[test]
fn text_and_binary_agree() {
    let g = bitruss::workloads::random::uniform(14, 11, 70, 99);
    let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
    let mut text = Vec::new();
    bitruss::write_decomposition(&g, &d, &mut text).unwrap();
    let (gt, dt) = bitruss::read_decomposition(text.as_slice()).unwrap();
    let mut bin = Vec::new();
    bitruss::write_snapshot(&g, &d, None, &mut bin).unwrap();
    let snap = bitruss::read_snapshot(bin.as_slice()).unwrap();
    assert_eq!(gt.edge_pairs(), snap.graph.edge_pairs());
    assert_eq!(dt, snap.decomposition);
}
