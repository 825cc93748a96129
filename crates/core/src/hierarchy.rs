//! The bitruss hierarchy index: answer k-bitruss queries without
//! rescanning all edges.
//!
//! The whole point of computing φ for every edge (§II of the paper) is
//! that the nested k-bitruss hierarchy `H_0 ⊇ H_1 ⊇ H_2 ⊇ …` can then be
//! *queried*. [`Decomposition`]'s query methods rescan all `m` edges per
//! call; a [`BitrussHierarchy`] is built once in `O(m α(n) + m log m)`
//! and afterwards answers
//!
//! * [`BitrussHierarchy::k_bitruss_count`] in `O(log L)`,
//! * [`BitrussHierarchy::k_bitruss_edges`] in `O(log L + |answer| log |answer|)`
//!   (the log factor only for returning edges in ascending-id order),
//! * [`BitrussHierarchy::community_size`] with one ancestor walk —
//!   `O(1)` at `k = φ(e)`, `O(L)` at worst — and no materialization,
//! * [`BitrussHierarchy::community_of`] and
//!   [`BitrussHierarchy::communities`] output-sensitively — only the
//!   forest nodes and edges of the answer are visited,
//! * [`BitrussHierarchy::max_k`] and [`BitrussHierarchy::level_sizes`] in
//!   `O(1)` / `O(L)`,
//!
//! where `L` is the number of distinct bitruss numbers. Two structures
//! make this work:
//!
//! 1. **a φ-sorted edge permutation** — edge ids ordered by `(φ
//!    descending, id ascending)` with one cumulative count per distinct
//!    level, so `{e : φ(e) ≥ k}` is always a prefix located by binary
//!    search;
//! 2. **a nested community forest** — one node per connected component of
//!    an `H_k` *at the highest level where that component exists in this
//!    shape*. Processing levels from φ_max downward with a union-find,
//!    a new node is created exactly when a component changes (gains
//!    edges, merges with others, or appears); absorbed components become
//!    its children. Each edge is *owned* by the node created at its own
//!    level, so the component of `H_k` containing an edge is the subtree
//!    below the highest ancestor whose level is still `≥ k`, and its
//!    edge set is the union of the owned edges in that subtree.
//!
//! Each node also carries the size of the community it roots: the edges,
//! upper vertices and lower vertices of its subtree. Edge counts are the
//! owned-edge counts summed up the tree. Vertex counts need no set
//! union: each vertex `v` is counted once, at its *owner* — the node
//! owning an incident edge of φ = `max_k(v)`. All of `v`'s edges at that
//! level share one component of `H_{max_k(v)}`, hence one owner node, and
//! every component of a lower `H_k` that contains `v` is an ancestor of
//! it. So summing children into parents (children have smaller node ids)
//! counts `v` exactly in the communities that contain it.
//!
//! The forest is the in-memory analogue of the tree-shaped community
//! indexes used for output-sensitive community search over cohesion
//! hierarchies; it persists inside [`crate::persist::binary`] snapshots
//! so a query server never rebuilds it. The subtree sizes are derived
//! data: recomputed in `O(n + m)` on build and on load, never persisted.

use std::collections::BTreeMap;

use bigraph::{BipartiteGraph, EdgeId, Error, Result, UnionFind, VertexId};

use crate::decomposition::{Community, Decomposition};
use crate::persist::check_matching;

/// Sentinel for "no node" / "no parent" in the forest arrays.
const NONE: u32 = u32::MAX;

/// Sentinel in `vertex_max_k` for vertices with no incident edge.
const ISOLATED: u64 = u64::MAX;

/// The size of one k-bitruss community, as a `community` query reports
/// it: equal to the counts of the [`Community`] that
/// [`BitrussHierarchy::community_of`] materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommunitySize {
    /// Upper-layer member vertices.
    pub num_upper: usize,
    /// Lower-layer member vertices.
    pub num_lower: usize,
    /// Member edges.
    pub num_edges: usize,
}

/// A queryable index over a graph's bitruss decomposition: the φ-sorted
/// edge permutation plus the nested community forest (see the module
/// docs). Built once with [`BitrussHierarchy::new`]; all query methods
/// take `&self`.
///
/// The hierarchy stores edge and vertex *ids* only — pass the graph the
/// decomposition came from to the methods that materialize communities.
///
/// ```
/// use bigraph::GraphBuilder;
/// use bitruss_core::{decompose, Algorithm, BitrussHierarchy};
///
/// let g = GraphBuilder::new()
///     .add_edges([
///         (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
///         (2, 2), (2, 3), (3, 1), (3, 2), (3, 4),
///     ])
///     .build()
///     .unwrap();
/// let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
/// let h = BitrussHierarchy::new(&g, &d).unwrap();
/// assert_eq!(h.max_bitruss(), 2);
/// assert_eq!(h.k_bitruss_count(2), 6);
/// assert_eq!(h.k_bitruss_edges(2), d.k_bitruss_edges(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitrussHierarchy {
    /// Distinct bitruss numbers, ascending.
    pub(crate) levels: Vec<u64>,
    /// `count_ge[i]` = number of edges with `φ ≥ levels[i]`.
    pub(crate) count_ge: Vec<usize>,
    /// Edge ids sorted by `(φ descending, id ascending)`.
    pub(crate) perm: Vec<u32>,
    /// Level of each forest node; non-increasing in node-id order
    /// (nodes are created while sweeping levels downward).
    pub(crate) node_level: Vec<u64>,
    /// Parent of each node ([`NONE`] at roots). Parents have strictly
    /// lower levels and strictly larger node ids than their children.
    pub(crate) node_parent: Vec<u32>,
    /// CSR offsets into [`Self::node_edge_ids`], length `nodes + 1`.
    pub(crate) node_edge_offsets: Vec<usize>,
    /// Edges owned by each node (every edge owned by exactly one node —
    /// the node created at the edge's own φ level).
    pub(crate) node_edge_ids: Vec<u32>,
    /// Owning node of each edge.
    pub(crate) edge_node: Vec<u32>,
    /// Per global vertex id: max φ over incident edges, [`ISOLATED`] for
    /// degree-0 vertices.
    pub(crate) vertex_max_k: Vec<u64>,
    /// CSR child lists, derived from [`Self::node_parent`].
    child_offsets: Vec<usize>,
    children: Vec<u32>,
    /// Per node: `[edges, upper vertices, lower vertices]` of its
    /// subtree, derived by [`derive_subtree_sizes`].
    subtree_sizes: Vec<[u32; 3]>,
}

impl BitrussHierarchy {
    /// Builds the hierarchy for `(g, d)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] when `d` does not belong to `g` (φ
    /// array length differs from the edge count).
    pub fn new(g: &BipartiteGraph, d: &Decomposition) -> Result<Self> {
        check_matching(g, d)?;
        Ok(Self::build(g, &d.phi))
    }

    /// [`BitrussHierarchy::new`] for a φ array already known to hold one
    /// entry per edge of `g`.
    pub(crate) fn build(g: &BipartiteGraph, phi: &[u64]) -> Self {
        let m = phi.len();
        let n = g.num_vertices() as usize;

        let mut perm: Vec<u32> = (0..m as u32).collect();
        perm.sort_unstable_by_key(|&e| (std::cmp::Reverse(phi[e as usize]), e));

        // Distinct levels (ascending) and cumulative ≥-counts from the
        // descending permutation.
        let mut levels: Vec<u64> = Vec::new();
        let mut count_ge: Vec<usize> = Vec::new();
        for (i, &e) in perm.iter().enumerate() {
            let p = phi[e as usize];
            if levels.last() != Some(&p) {
                levels.push(p);
                count_ge.push(i);
            }
        }
        // So far count_ge holds the prefix *start* of each descending
        // level's block; "edges with φ ≥ level" is the start of the next
        // block (m for the smallest level). Flip both to ascending order.
        let mut ge: Vec<usize> = if count_ge.is_empty() {
            Vec::new()
        } else {
            let mut v = count_ge[1..].to_vec();
            v.push(m);
            v
        };
        levels.reverse();
        ge.reverse();
        let count_ge = ge;

        // Nested community forest: sweep levels downward, tracking for
        // each union-find root the most recent node of its component.
        let mut uf = UnionFind::new(n);
        let mut node_of_root: Vec<u32> = vec![NONE; n];
        let mut node_level: Vec<u64> = Vec::new();
        let mut node_parent: Vec<u32> = Vec::new();
        let mut node_edge_offsets: Vec<usize> = vec![0];
        let mut node_edge_ids: Vec<u32> = Vec::with_capacity(m);
        let mut edge_node: Vec<u32> = vec![NONE; m];
        // Generation-stamped scratch: `slot[r]` holds the node created at
        // root `r` during the current level iff `mark[r] == generation`.
        let mut mark: Vec<u32> = vec![0; n];
        let mut slot: Vec<u32> = vec![NONE; n];
        let mut generation: u32 = 0;

        let mut i = 0;
        while i < m {
            let level = phi[perm[i] as usize];
            let mut j = i;
            while j < m && phi[perm[j] as usize] == level {
                j += 1;
            }
            let group = &perm[i..j];
            generation += 1;

            // 1. Components touched by this level's edges become children
            //    of the new nodes — snapshot (node, root) before unions.
            let mut absorbed: Vec<(u32, u32)> = Vec::new();
            for &e in group {
                let (u, v) = g.edge(EdgeId(e));
                for x in [u.0, v.0] {
                    let r = uf.find(x);
                    let nd = node_of_root[r as usize];
                    if nd != NONE {
                        absorbed.push((nd, r));
                    }
                }
            }
            absorbed.sort_unstable();
            absorbed.dedup_by_key(|c| c.0);

            // 2. Merge this level's edges into the union-find.
            for &e in group {
                let (u, v) = g.edge(EdgeId(e));
                uf.union(u.0, v.0);
            }

            // 3. One new node per component that contains a level edge;
            //    edges grouped contiguously per node for the CSR.
            let mut assignment: Vec<(u32, u32)> = Vec::with_capacity(group.len());
            for &e in group {
                let (u, _) = g.edge(EdgeId(e));
                let r = uf.find(u.0) as usize;
                let nd = if mark[r] == generation {
                    slot[r]
                } else {
                    let id = node_level.len() as u32;
                    node_level.push(level);
                    node_parent.push(NONE);
                    mark[r] = generation;
                    slot[r] = id;
                    id
                };
                edge_node[e as usize] = nd;
                assignment.push((nd, e));
            }
            assignment.sort_unstable();
            let mut t = 0;
            while t < assignment.len() {
                let nd = assignment[t].0;
                while t < assignment.len() && assignment[t].0 == nd {
                    node_edge_ids.push(assignment[t].1);
                    t += 1;
                }
                node_edge_offsets.push(node_edge_ids.len());
            }

            // 4. Absorbed components hang below the node now covering
            //    them; 5. that node becomes the component's current node.
            for &(old_node, old_root) in &absorbed {
                let r = uf.find(old_root) as usize;
                debug_assert_eq!(mark[r], generation, "absorbed component got no node");
                node_parent[old_node as usize] = slot[r];
            }
            for &e in group {
                let (u, _) = g.edge(EdgeId(e));
                let r = uf.find(u.0) as usize;
                node_of_root[r] = slot[r];
            }
            i = j;
        }

        let mut vertex_max_k = vec![ISOLATED; n];
        for (e, &p) in phi.iter().enumerate() {
            let (u, v) = g.edge(EdgeId(e as u32));
            for x in [u.index(), v.index()] {
                if vertex_max_k[x] == ISOLATED || vertex_max_k[x] < p {
                    vertex_max_k[x] = p;
                }
            }
        }

        let (child_offsets, children) = derive_children(&node_parent);
        let subtree_sizes = derive_subtree_sizes(g, &node_parent, &node_edge_offsets, &edge_node);
        Self {
            levels,
            count_ge,
            perm,
            node_level,
            node_parent,
            node_edge_offsets,
            node_edge_ids,
            edge_node,
            vertex_max_k,
            child_offsets,
            children,
            subtree_sizes,
        }
    }

    /// Reassembles a hierarchy from its persisted arrays, validating
    /// every structural invariant so corrupt snapshots surface as
    /// [`Error::Corrupt`] instead of panics. `g` is the graph the
    /// hierarchy claims to describe.
    #[allow(clippy::too_many_arguments)] // one argument per persisted section
    pub(crate) fn from_parts(
        g: &BipartiteGraph,
        levels: Vec<u64>,
        count_ge: Vec<usize>,
        perm: Vec<u32>,
        node_level: Vec<u64>,
        node_parent: Vec<u32>,
        node_edge_offsets: Vec<usize>,
        node_edge_ids: Vec<u32>,
        edge_node: Vec<u32>,
        vertex_max_k: Vec<u64>,
    ) -> Result<Self> {
        let corrupt = |msg: String| Err(Error::Corrupt(msg));
        let m = g.num_edges() as usize;
        let n = g.num_vertices() as usize;
        let nodes = node_level.len();
        if perm.len() != m || node_edge_ids.len() != m || edge_node.len() != m {
            return corrupt(format!(
                "hierarchy edge arrays disagree with the graph's {m} edges"
            ));
        }
        if vertex_max_k.len() != n {
            return corrupt(format!(
                "hierarchy has {} vertex entries for {n} vertices",
                vertex_max_k.len()
            ));
        }
        if levels.len() != count_ge.len() {
            return corrupt("level and count arrays differ in length".into());
        }
        if !levels.windows(2).all(|w| w[0] < w[1]) {
            return corrupt("levels are not strictly ascending".into());
        }
        if !count_ge.windows(2).all(|w| w[0] > w[1]) || count_ge.first().is_some_and(|&c| c != m) {
            return corrupt("per-level counts are not a strict suffix-count chain".into());
        }
        if (m > 0) == levels.is_empty() {
            return corrupt("level list inconsistent with edge count".into());
        }
        if node_parent.len() != nodes {
            return corrupt("node arrays differ in length".into());
        }
        if node_edge_offsets.len() != nodes + 1
            || node_edge_offsets.first() != Some(&0)
            || node_edge_offsets.last() != Some(&m)
            || !node_edge_offsets.windows(2).all(|w| w[0] < w[1])
        {
            // Strictly increasing: every node owns at least one edge.
            return corrupt("node→edge offsets are not a valid CSR over the edges".into());
        }
        if !node_level.windows(2).all(|w| w[0] >= w[1]) {
            return corrupt("node levels are not non-increasing".into());
        }
        for (i, &p) in node_parent.iter().enumerate() {
            if p == NONE {
                continue;
            }
            let p = p as usize;
            if p >= nodes || p <= i || node_level[p] >= node_level[i] {
                return corrupt(format!("node {i} has an impossible parent"));
            }
        }
        for (nd, w) in node_edge_offsets.windows(2).enumerate() {
            for &e in &node_edge_ids[w[0]..w[1]] {
                if e as usize >= m || edge_node[e as usize] != nd as u32 {
                    return corrupt(format!("node {nd} owns edges it is not mapped to"));
                }
            }
        }
        for (ids, what) in [
            (&perm, "edge permutation"),
            (&node_edge_ids, "node→edge list"),
        ] {
            let mut seen = vec![false; m];
            for &e in ids {
                if e as usize >= m || std::mem::replace(&mut seen[e as usize], true) {
                    return corrupt(format!("{what} is not a permutation"));
                }
            }
        }
        let (child_offsets, children) = derive_children(&node_parent);
        let subtree_sizes = derive_subtree_sizes(g, &node_parent, &node_edge_offsets, &edge_node);
        Ok(Self {
            levels,
            count_ge,
            perm,
            node_level,
            node_parent,
            node_edge_offsets,
            node_edge_ids,
            edge_node,
            vertex_max_k,
            child_offsets,
            children,
            subtree_sizes,
        })
    }

    /// Checks the hierarchy against the graph and φ array it claims to
    /// index: the permutation order, the per-level counts, every edge's
    /// owning node level, and every vertex's max-k must all be derivable
    /// from them. Used when loading snapshots so a valid load
    /// *guarantees* query answers agree with the decomposition.
    pub(crate) fn validate_against_phi(&self, g: &BipartiteGraph, phi: &[u64]) -> Result<()> {
        let corrupt = |msg: &str| Err(Error::Corrupt(msg.into()));
        if phi.len() != self.perm.len() {
            return corrupt("hierarchy and φ array disagree on the edge count");
        }
        let mut derived_levels: Vec<u64> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for (i, w) in self.perm.windows(2).enumerate() {
            let (a, b) = (phi[w[0] as usize], phi[w[1] as usize]);
            if a < b || (a == b && w[0] >= w[1]) {
                return corrupt("edge permutation is not sorted by (φ desc, id asc)");
            }
            if a > b {
                derived_levels.push(a);
                starts.push(i + 1);
            }
        }
        if let Some(&last) = self.perm.last() {
            derived_levels.push(phi[last as usize]);
            starts.push(self.perm.len());
        }
        derived_levels.reverse();
        starts.reverse();
        if derived_levels != self.levels || starts != self.count_ge {
            return corrupt("per-level counts do not match the φ array");
        }
        for (e, &nd) in self.edge_node.iter().enumerate() {
            if nd == NONE || self.node_level[nd as usize] != phi[e] {
                return corrupt("an edge's owning node sits at the wrong level");
            }
        }
        let mut expect = vec![ISOLATED; self.vertex_max_k.len()];
        for (e, &p) in phi.iter().enumerate() {
            let (u, v) = g.edge(EdgeId(e as u32));
            for x in [u.index(), v.index()] {
                if expect[x] == ISOLATED || expect[x] < p {
                    expect[x] = p;
                }
            }
        }
        if expect != self.vertex_max_k {
            return corrupt("per-vertex max-k values do not match the φ array");
        }
        Ok(())
    }

    /// Number of edges the hierarchy indexes.
    pub fn num_edges(&self) -> usize {
        self.perm.len()
    }

    /// Number of nodes in the nested community forest.
    pub fn num_forest_nodes(&self) -> usize {
        self.node_level.len()
    }

    /// The bitruss number of one edge (level of its owning forest node).
    #[inline]
    pub fn phi_of(&self, e: EdgeId) -> u64 {
        self.node_level[self.edge_node[e.index()] as usize]
    }

    /// The largest bitruss number present. 0 for an edgeless graph.
    pub fn max_bitruss(&self) -> u64 {
        self.levels.last().copied().unwrap_or(0)
    }

    /// The distinct bitruss numbers present, ascending.
    pub fn levels(&self) -> &[u64] {
        &self.levels
    }

    /// Number of edges per bitruss number, ascending by `k` — identical
    /// to [`Decomposition::level_sizes`], in `O(L)` instead of `O(m)`.
    pub fn level_sizes(&self) -> BTreeMap<u64, usize> {
        (0..self.levels.len())
            .map(|i| {
                let above = self.count_ge.get(i + 1).copied().unwrap_or(0);
                (self.levels[i], self.count_ge[i] - above)
            })
            .collect()
    }

    /// Number of edges of the k-bitruss `H_k = {e : φ(e) ≥ k}`, in
    /// `O(log L)`.
    pub fn k_bitruss_count(&self, k: u64) -> usize {
        let idx = self.levels.partition_point(|&l| l < k);
        if idx == self.levels.len() {
            0
        } else {
            self.count_ge[idx]
        }
    }

    /// Edge ids of the k-bitruss, ascending — identical to
    /// [`Decomposition::k_bitruss_edges`], but only the answer prefix of
    /// the φ-sorted permutation is touched (the sort restores ascending
    /// id order, so the call is `O(log L + |answer| log |answer|)`).
    pub fn k_bitruss_edges(&self, k: u64) -> Vec<EdgeId> {
        let cnt = self.k_bitruss_count(k);
        let mut out: Vec<EdgeId> = self.perm[..cnt].iter().map(|&e| EdgeId(e)).collect();
        out.sort_unstable();
        out
    }

    /// The largest `k` such that `v` has an edge in the k-bitruss, or
    /// `None` for isolated vertices. `O(1)`.
    pub fn max_k(&self, v: VertexId) -> Option<u64> {
        match self.vertex_max_k.get(v.index()) {
            Some(&ISOLATED) | None => None,
            Some(&k) => Some(k),
        }
    }

    /// The forest node rooting the k-bitruss community of `e`: the
    /// highest ancestor of `e`'s owner still at level `≥ k`. `None` when
    /// `φ(e) < k` or `e` is out of range. At `k = φ(e)` the owner itself
    /// is the root (parents have strictly lower levels).
    fn community_root(&self, e: EdgeId, k: u64) -> Option<u32> {
        if e.index() >= self.edge_node.len() || self.phi_of(e) < k {
            return None;
        }
        let mut nd = self.edge_node[e.index()];
        loop {
            let p = self.node_parent[nd as usize];
            if p == NONE || self.node_level[p as usize] < k {
                return Some(nd);
            }
            nd = p;
        }
    }

    /// The connected component of the k-bitruss containing `e`, or
    /// `None` when `φ(e) < k` (or `e` is out of range). Output-sensitive:
    /// walks up the forest to the shallowest ancestor still at level
    /// `≥ k` and collects its subtree. The returned [`Community`] is
    /// identical to the one [`Decomposition::communities`] would list.
    pub fn community_of(&self, g: &BipartiteGraph, e: EdgeId, k: u64) -> Option<Community> {
        self.community_root(e, k)
            .map(|root| self.collect_community(g, root))
    }

    /// The size of [`BitrussHierarchy::community_of`]'s answer without
    /// materializing it: one ancestor walk to the community's root node,
    /// whose subtree sizes are precomputed. `O(1)` at `k = φ(e)`, `O(L)`
    /// at worst.
    pub fn community_size(&self, e: EdgeId, k: u64) -> Option<CommunitySize> {
        self.community_root(e, k).map(|root| {
            let [edges, upper, lower] = self.subtree_sizes[root as usize];
            CommunitySize {
                num_upper: upper as usize,
                num_lower: lower as usize,
                num_edges: edges as usize,
            }
        })
    }

    /// All connected communities of the k-bitruss, largest first —
    /// the same list as [`Decomposition::communities`] (tie order among
    /// equal-sized communities is unspecified in both). Output-sensitive:
    /// nodes at level `≥ k` form a prefix of the forest, so only
    /// `O(|H_k|)` work is done.
    pub fn communities(&self, g: &BipartiteGraph, k: u64) -> Vec<Community> {
        let end = self.node_level.partition_point(|&l| l >= k);
        let mut out: Vec<Community> = (0..end)
            .filter(|&nd| {
                let p = self.node_parent[nd];
                p == NONE || self.node_level[p as usize] < k
            })
            .map(|nd| self.collect_community(g, nd as u32))
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.edges.len()));
        out
    }

    /// Materializes the community rooted at forest node `root`: all owned
    /// edges of the subtree, plus their endpoint vertices.
    fn collect_community(&self, g: &BipartiteGraph, root: u32) -> Community {
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut stack = vec![root];
        while let Some(nd) = stack.pop() {
            let nd = nd as usize;
            let range = self.node_edge_offsets[nd]..self.node_edge_offsets[nd + 1];
            edges.extend(self.node_edge_ids[range].iter().map(|&e| EdgeId(e)));
            let kids = self.child_offsets[nd]..self.child_offsets[nd + 1];
            stack.extend_from_slice(&self.children[kids]);
        }
        edges.sort_unstable();
        let mut vertices: Vec<VertexId> = Vec::with_capacity(edges.len() * 2);
        for &e in &edges {
            let (u, v) = g.edge(e);
            vertices.push(u);
            vertices.push(v);
        }
        vertices.sort_unstable();
        vertices.dedup();
        Community { vertices, edges }
    }

    /// Approximate heap footprint of the hierarchy in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.levels.len() * 8
            + self.count_ge.len() * 8
            + self.perm.len() * 4
            + self.node_level.len() * 8
            + self.node_parent.len() * 4
            + self.node_edge_offsets.len() * 8
            + self.node_edge_ids.len() * 4
            + self.edge_node.len() * 4
            + self.vertex_max_k.len() * 8
            + self.child_offsets.len() * 8
            + self.children.len() * 4
            + self.subtree_sizes.len() * 12
    }
}

/// Builds CSR child lists from the parent array.
fn derive_children(node_parent: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let nodes = node_parent.len();
    let mut offsets = vec![0usize; nodes + 1];
    for &p in node_parent {
        if p != NONE {
            offsets[p as usize + 1] += 1;
        }
    }
    for i in 0..nodes {
        offsets[i + 1] += offsets[i];
    }
    let mut children = vec![0u32; offsets[nodes]];
    let mut cursor = offsets.clone();
    for (c, &p) in node_parent.iter().enumerate() {
        if p != NONE {
            children[cursor[p as usize]] = c as u32;
            cursor[p as usize] += 1;
        }
    }
    (offsets, children)
}

/// Subtree sizes of every forest node, `[edges, upper, lower]` (see the
/// module docs for why each vertex is counted once, at its owner node).
/// One pass over the edges finds each vertex's owner — the node of an
/// incident edge at the highest level, which is the smallest such node
/// id since levels do not increase with the id — and one ascending pass
/// over the nodes adds children into parents, whose ids are larger.
fn derive_subtree_sizes(
    g: &BipartiteGraph,
    node_parent: &[u32],
    node_edge_offsets: &[usize],
    edge_node: &[u32],
) -> Vec<[u32; 3]> {
    let mut sizes: Vec<[u32; 3]> = node_edge_offsets
        .windows(2)
        .map(|w| [(w[1] - w[0]) as u32, 0, 0])
        .collect();
    let mut owner = vec![NONE; g.num_vertices() as usize];
    for (e, &nd) in edge_node.iter().enumerate() {
        let (u, v) = g.edge(EdgeId(e as u32));
        for x in [u.index(), v.index()] {
            // `NONE` is `u32::MAX`, so the first incident edge replaces it.
            owner[x] = owner[x].min(nd);
        }
    }
    for (x, &nd) in owner.iter().enumerate() {
        if nd != NONE {
            let layer = if g.is_upper(VertexId(x as u32)) { 1 } else { 2 };
            sizes[nd as usize][layer] += 1;
        }
    }
    for nd in 0..sizes.len() {
        let p = node_parent[nd];
        if p != NONE {
            let [edges, upper, lower] = sizes[nd];
            let parent = &mut sizes[p as usize];
            parent[0] += edges;
            parent[1] += upper;
            parent[2] += lower;
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{decompose, Algorithm};
    use bigraph::GraphBuilder;

    /// Figure 1/4 fixture with known bitruss numbers 2,2,2,2,2,2,1,0,1,1,0.
    fn fig1() -> (BipartiteGraph, Decomposition) {
        let g = GraphBuilder::new()
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
        let phi = vec![2, 2, 2, 2, 2, 2, 1, 0, 1, 1, 0];
        (g, Decomposition::new(phi))
    }

    #[test]
    fn prefix_queries_match_the_decomposition() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        assert_eq!(h.max_bitruss(), 2);
        assert_eq!(h.levels(), &[0, 1, 2]);
        assert_eq!(h.level_sizes(), d.level_sizes());
        for k in 0..=3 {
            assert_eq!(h.k_bitruss_count(k), d.k_bitruss_edges(k).len(), "k={k}");
            assert_eq!(h.k_bitruss_edges(k), d.k_bitruss_edges(k), "k={k}");
        }
        for e in g.edges() {
            assert_eq!(h.phi_of(e), d.bitruss_number(e));
        }
    }

    #[test]
    fn forest_communities_match_the_decomposition() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        for k in 0..=2 {
            let want = d.communities(&g, k);
            let got = h.communities(&g, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            // Same multiset of communities (tie order may differ).
            let canon = |mut cs: Vec<Community>| {
                cs.sort_by_key(|c| c.edges[0]);
                cs
            };
            assert_eq!(canon(got), canon(want), "k={k}");
            for e in g.edges() {
                let direct = h.community_of(&g, e, k);
                let scanned = d
                    .communities(&g, k)
                    .into_iter()
                    .find(|c| c.edges.contains(&e));
                assert_eq!(direct, scanned, "k={k} e={e}");
            }
        }
    }

    #[test]
    fn max_k_and_isolated_vertices() {
        let g = GraphBuilder::new()
            .with_upper(3)
            .with_lower(3)
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1)])
            .build()
            .unwrap();
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        assert_eq!(h.max_k(g.upper(0)), Some(1));
        assert_eq!(h.max_k(g.lower(1)), Some(1));
        assert_eq!(h.max_k(g.upper(2)), None);
        assert_eq!(h.max_k(g.lower(2)), None);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let h = BitrussHierarchy::new(&g, &Decomposition::new(vec![])).unwrap();
        assert_eq!(h.max_bitruss(), 0);
        assert_eq!(h.k_bitruss_count(0), 0);
        assert!(h.k_bitruss_edges(0).is_empty());
        assert!(h.communities(&g, 0).is_empty());
        assert_eq!(h.num_forest_nodes(), 0);
    }

    #[test]
    fn mismatched_decomposition_is_rejected() {
        let g = GraphBuilder::new().add_edge(0, 0).build().unwrap();
        let err = BitrussHierarchy::new(&g, &Decomposition::new(vec![0, 1])).unwrap_err();
        assert!(matches!(err, Error::Invariant(_)));
    }

    #[test]
    fn forest_shape_on_the_fixture() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        // Level 2 forms one component, level 1 absorbs it (one node),
        // level 0 has two separate additions: (2,3) attaches to the big
        // component and (3,4) attaches too (via u3) — still one comp.
        assert_eq!(h.node_level.first(), Some(&2));
        assert_eq!(h.node_level.last(), Some(&0));
        // Every edge owned by a node at its own level.
        for e in g.edges() {
            assert_eq!(
                h.node_level[h.edge_node[e.index()] as usize],
                d.phi[e.index()]
            );
        }
        // Exactly one root (the whole graph is connected at k=0).
        let roots = h.node_parent.iter().filter(|&&p| p == NONE).count();
        assert_eq!(roots, 1);
    }
}
