//! # bds-graph — graph substrate for the BFS benchmark
//!
//! The paper's `bfs` benchmark (Figure 6, Section 6) runs on a "random
//! power-law graph" generated with the R-MAT model of Chakrabarti,
//! Zhan and Faloutsos. This crate provides:
//!
//! * [`CsrGraph`] — compressed sparse row adjacency (the standard PBBS
//!   representation), built from an edge list;
//! * [`rmat`] — a seeded R-MAT generator (recursive quadrant sampling
//!   with the classic `(a, b, c, d)` probabilities), yielding the
//!   power-law degree distribution that drives the benchmark's irregular
//!   frontier sizes;
//! * [`bfs_sequential`] — a reference BFS producing parent and distance
//!   arrays, used by tests and by the harness to validate the parallel
//!   versions.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Vertex identifier.
pub type Vertex = u32;

/// A directed graph in compressed sparse row form.
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` with v's out-edges.
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
}

impl CsrGraph {
    /// Build from an edge list. Self-loops are kept; duplicate edges are
    /// kept (they do not affect BFS correctness). Each vertex's
    /// neighbours appear in edge-list order, whatever pool builds the
    /// graph: one counting pass sizes the rows, and a sequential
    /// scatter fills them.
    pub fn from_edges(num_vertices: usize, edges: &[(Vertex, Vertex)]) -> CsrGraph {
        let mut offsets = vec![0usize; num_vertices + 1];
        for &(u, _) in edges {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut targets = vec![0; edges.len()];
        for &(u, v) in edges {
            let slot = &mut cursor[u as usize];
            targets[*slot] = v;
            *slot += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v`.
    pub fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Parameters of the R-MAT recursive model.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average directed edges per vertex.
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to ~1. The classic skewed choice
    /// `(0.57, 0.19, 0.19, 0.05)` yields a power-law degree distribution.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl RmatParams {
    /// The standard skewed parameters at the given scale.
    pub fn standard(scale: u32, edge_factor: usize, seed: u64) -> RmatParams {
        RmatParams {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }
}

/// Generate an R-MAT graph: sample each edge by descending `scale` levels
/// of the adjacency-matrix quadtree, picking a quadrant per level by the
/// `(a, b, c, d)` distribution (with slight per-level noise, as in the
/// original paper, to avoid exact self-similarity artifacts). Returns a
/// [`CsrGraph`] with `2^scale` vertices and `edge_factor * 2^scale`
/// directed edges. Deterministic in `params.seed` alone: the same graph
/// under any pool.
pub fn rmat(params: RmatParams) -> CsrGraph {
    let n = 1usize << params.scale;
    let m = params.edge_factor * n;
    let edges = build_rmat_edges(params, m);
    CsrGraph::from_edges(n, &edges)
}

/// Edges are sampled in this many independently seeded chunks, in
/// parallel. A constant, so the edge list does not depend on the pool.
const RMAT_CHUNKS: usize = 64;

fn build_rmat_edges(params: RmatParams, m: usize) -> Vec<(Vertex, Vertex)> {
    use std::sync::Mutex;
    let per = m.div_ceil(RMAT_CHUNKS);
    let out = Mutex::new(vec![Vec::new(); RMAT_CHUNKS]);
    bds_pool::apply(RMAT_CHUNKS, |c| {
        let lo = c * per;
        let hi = ((c + 1) * per).min(m);
        let mut rng = SmallRng::seed_from_u64(params.seed ^ (0xABCD_1234_u64 << 1) ^ c as u64);
        let mut local = Vec::with_capacity(hi.saturating_sub(lo));
        for _ in lo..hi {
            local.push(sample_edge(&params, &mut rng));
        }
        out.lock().unwrap()[c] = local;
    });
    out.into_inner().unwrap().into_iter().flatten().collect()
}

fn sample_edge(params: &RmatParams, rng: &mut SmallRng) -> (Vertex, Vertex) {
    let mut u = 0u64;
    let mut v = 0u64;
    for _ in 0..params.scale {
        // Per-level noise keeps the distribution power-law without exact
        // self-similarity (Chakrabarti et al., Section 3).
        let noise = 1.0 + 0.1 * (rng.gen::<f64>() - 0.5);
        let a = params.a * noise;
        let b = params.b * noise;
        let c = params.c * noise;
        let r: f64 = rng.gen::<f64>() * (a + b + c + (1.0 - params.a - params.b - params.c));
        u <<= 1;
        v <<= 1;
        if r < a {
            // top-left
        } else if r < a + b {
            v |= 1;
        } else if r < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as Vertex, v as Vertex)
}

/// Sequential reference BFS from `source`. Returns `(parent, dist)`:
/// unreached vertices have `parent == NO_PARENT` and `dist == u32::MAX`;
/// the source is its own parent (as in the paper's Figure 6).
pub fn bfs_sequential(g: &CsrGraph, source: Vertex) -> (Vec<Vertex>, Vec<u32>) {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    parent[source as usize] = source;
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.out_neighbors(u) {
            if parent[v as usize] == NO_PARENT {
                parent[v as usize] = u;
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    (parent, dist)
}

/// Marker for an unvisited vertex in parent arrays.
pub const NO_PARENT: Vertex = Vertex::MAX;

/// Validate a parallel BFS parent array against the graph: every reached
/// vertex's parent must be a real in-neighbor at distance exactly one
/// less, and the set of reached vertices must match the sequential BFS.
pub fn validate_bfs(g: &CsrGraph, source: Vertex, parent: &[Vertex]) -> Result<(), String> {
    let n = g.num_vertices();
    if parent.len() != n {
        return Err(format!("parent array has length {} != {}", parent.len(), n));
    }
    if parent[source as usize] != source {
        return Err("source is not its own parent".into());
    }
    let (_ref_parent, ref_dist) = bfs_sequential(g, source);
    // Compute dist implied by the parent pointers.
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    // Repeated relaxation over parent chains; BFS trees have depth <= n.
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    order.sort_by_key(|&v| ref_dist[v as usize]);
    for &v in &order {
        if v == source || parent[v as usize] == NO_PARENT {
            continue;
        }
        let p = parent[v as usize];
        if !g.out_neighbors(p).contains(&v) {
            return Err(format!("{} claims parent {} but no edge {}->{}", v, p, p, v));
        }
        if dist[p as usize] == u32::MAX {
            return Err(format!("{}'s parent {} unreached", v, p));
        }
        dist[v as usize] = dist[p as usize] + 1;
    }
    for v in 0..n {
        let reached = parent[v] != NO_PARENT;
        let ref_reached = ref_dist[v] != u32::MAX;
        if reached != ref_reached {
            return Err(format!(
                "vertex {} reachability mismatch: got {}, reference {}",
                v, reached, ref_reached
            ));
        }
        if reached && dist[v] != ref_dist[v] {
            return Err(format!(
                "vertex {} distance mismatch: got {}, reference {}",
                v, dist[v], ref_dist[v]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<(Vertex, Vertex)> = (0..n as Vertex - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn csr_from_edges_basic() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (1, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        let mut n0 = g.out_neighbors(0).to_vec();
        n0.sort();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn csr_empty_graph() {
        let g = CsrGraph::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert!(g.out_neighbors(1).is_empty());
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(100);
        let (parent, dist) = bfs_sequential(&g, 0);
        assert_eq!(dist[99], 99);
        assert_eq!(parent[50], 49);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let (parent, dist) = bfs_sequential(&g, 0);
        assert_eq!(parent[2], NO_PARENT);
        assert_eq!(dist[3], u32::MAX);
        assert_eq!(parent[1], 0);
    }

    #[test]
    fn rmat_is_deterministic_and_sized() {
        let p = RmatParams::standard(10, 8, 42);
        let g1 = rmat(p);
        let g2 = rmat(p);
        assert_eq!(g1.num_vertices(), 1024);
        assert_eq!(g1.num_edges(), 8 * 1024);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for v in [0u32, 1, 512, 1023] {
            assert_eq!(g1.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn rmat_is_the_same_graph_under_any_pool() {
        let p = RmatParams::standard(10, 8, 42);
        let g1 = bds_pool::Pool::new(1).install(|| rmat(p));
        let g4 = bds_pool::Pool::new(4).install(|| rmat(p));
        assert_eq!(g1.num_edges(), g4.num_edges());
        for v in 0..g1.num_vertices() as Vertex {
            assert_eq!(g1.out_neighbors(v), g4.out_neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn rmat_has_skewed_degrees() {
        let g = rmat(RmatParams::standard(12, 16, 7));
        let mut degrees: Vec<usize> = (0..g.num_vertices() as Vertex).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees[..g.num_vertices() / 100].iter().sum::<usize>();
        // Power-law: the top 1% of vertices should hold far more than 1%
        // of the edges (here we require > 10%).
        assert!(
            top * 10 > g.num_edges(),
            "top-1% hold {} of {} edges",
            top,
            g.num_edges()
        );
    }

    #[test]
    fn validate_accepts_reference_bfs() {
        let g = rmat(RmatParams::standard(10, 8, 3));
        let (parent, _) = bfs_sequential(&g, 0);
        validate_bfs(&g, 0, &parent).unwrap();
    }

    #[test]
    fn validate_rejects_corrupt_parent() {
        let g = path_graph(10);
        let (mut parent, _) = bfs_sequential(&g, 0);
        parent[5] = 9; // 9 -> 5 edge does not exist
        assert!(validate_bfs(&g, 0, &parent).is_err());
    }
}

/// Uniform (Erdős–Rényi G(n, m)) random graph: `m` directed edges with
/// independently uniform endpoints. Deterministic in `seed`.
pub fn gnm_random(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(Vertex, Vertex)> = (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n as Vertex),
                rng.gen_range(0..n as Vertex),
            )
        })
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// A `rows × cols` 4-neighbor grid with bidirectional edges — the
/// high-diameter antithesis of the power-law inputs, useful for testing
/// deep-frontier BFS behaviour.
pub fn grid2d(rows: usize, cols: usize) -> CsrGraph {
    let id = |r: usize, c: usize| (r * cols + c) as Vertex;
    let mut edges = Vec::with_capacity(4 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
                edges.push((id(r + 1, c), id(r, c)));
            }
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
                edges.push((id(r, c + 1), id(r, c)));
            }
        }
    }
    CsrGraph::from_edges(rows * cols, &edges)
}

impl CsrGraph {
    /// The transposed graph (every edge reversed).
    pub fn transpose(&self) -> CsrGraph {
        let edges: Vec<(Vertex, Vertex)> = (0..self.num_vertices() as Vertex)
            .flat_map(|u| self.out_neighbors(u).iter().map(move |&v| (v, u)))
            .collect();
        CsrGraph::from_edges(self.num_vertices(), &edges)
    }

    /// `(min, max, mean)` out-degree.
    pub fn degree_stats(&self) -> (usize, usize, f64) {
        let mut min = usize::MAX;
        let mut max = 0;
        for v in 0..self.num_vertices() as Vertex {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
        }
        (
            if self.num_vertices() == 0 { 0 } else { min },
            max,
            self.num_edges() as f64 / self.num_vertices().max(1) as f64,
        )
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = gnm_random(1000, 5000, 3);
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(g.num_edges(), 5000);
    }

    #[test]
    fn grid_has_expected_structure() {
        let g = grid2d(10, 20);
        assert_eq!(g.num_vertices(), 200);
        // Interior vertices have degree 4.
        assert_eq!(g.degree(5 * 20 + 10), 4);
        // Corner has degree 2.
        assert_eq!(g.degree(0), 2);
        // BFS across the grid: diameter = rows+cols-2.
        let (_, dist) = bfs_sequential(&g, 0);
        assert_eq!(dist[199], 10 + 20 - 2);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]);
        let t = g.transpose();
        assert_eq!(t.out_neighbors(1), &[0]);
        assert_eq!(t.out_neighbors(2), &[1]);
        assert_eq!(t.num_edges(), 3);
        // Double transpose restores reachability.
        let tt = t.transpose();
        let (p1, _) = bfs_sequential(&g, 0);
        let (p2, _) = bfs_sequential(&tt, 0);
        for v in 0..4 {
            assert_eq!(p1[v] == NO_PARENT, p2[v] == NO_PARENT);
        }
    }

    #[test]
    fn degree_stats_sane() {
        let g = rmat(RmatParams::standard(10, 8, 5));
        let (min, max, mean) = g.degree_stats();
        assert!(min <= max);
        assert!((mean - 8.0).abs() < 0.01);
        assert!(max > 8, "power-law graph should have a heavy hub");
    }
}
