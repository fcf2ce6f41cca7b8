//! Structural statistics: components, degree distributions, density.

use crate::graph::{Graph, NodeId};

/// Number of connected components (BFS over all nodes).
pub fn connected_components(g: &Graph) -> usize {
    let n = g.num_nodes();
    let mut visited = vec![false; n];
    let mut queue: Vec<NodeId> = Vec::new();
    let mut components = 0usize;
    for start in 0..n {
        if visited[start] {
            continue;
        }
        components += 1;
        visited[start] = true;
        queue.push(start as NodeId);
        while let Some(u) = queue.pop() {
            for &(v, _) in g.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push(v);
                }
            }
        }
    }
    components
}

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

/// Computes [`DegreeStats`] for `g`. Panics on an empty graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    assert!(g.num_nodes() > 0, "degree stats of an empty graph");
    let mut degs: Vec<usize> = (0..g.num_nodes() as NodeId).map(|u| g.degree(u)).collect();
    degs.sort_unstable();
    let n = degs.len();
    DegreeStats {
        min: degs[0],
        max: degs[n - 1],
        mean: degs.iter().sum::<usize>() as f64 / n as f64,
        median: degs[n / 2],
        isolated: degs.iter().take_while(|&&d| d == 0).count(),
    }
}

/// Edge density `m / (n(n-1)/2)`.
pub fn density(g: &Graph) -> f64 {
    let n = g.num_nodes() as f64;
    if n < 2.0 {
        return 0.0;
    }
    g.num_edges() as f64 / (n * (n - 1.0) / 2.0)
}

/// Fraction of edges whose endpoints share a class label. Returns `None` if
/// the graph is unlabelled or has no edges. For a planted-partition graph
/// this recovers the generator's `intra_fraction`.
pub fn label_homophily(g: &Graph) -> Option<f64> {
    let labels = g.labels()?;
    if g.num_edges() == 0 {
        return None;
    }
    let intra = g.edges().filter(|&(u, v, _)| labels[u as usize] == labels[v as usize]).count();
    Some(intra as f64 / g.num_edges() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::{path, ring, star};

    #[test]
    fn components_of_disjoint_rings() {
        let mut g = Graph::with_nodes(8);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(u, v).unwrap();
        }
        // nodes 6, 7 isolated
        assert_eq!(connected_components(&g), 4);
    }

    #[test]
    fn components_of_connected_graph() {
        assert_eq!(connected_components(&ring(10)), 1);
    }

    #[test]
    fn degree_stats_star() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_counts_isolated() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.isolated, 2);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn density_path() {
        let g = path(4); // 3 edges of 6 possible
        assert!((density(&g) - 0.5).abs() < 1e-12);
        assert_eq!(density(&Graph::with_nodes(1)), 0.0);
    }

    #[test]
    fn homophily() {
        let mut g = path(4);
        assert_eq!(label_homophily(&g), None);
        g.set_labels(vec![0, 0, 1, 1]).unwrap();
        // edges (0,1) same, (1,2) diff, (2,3) same → 2/3
        let h = label_homophily(&g).unwrap();
        assert!((h - 2.0 / 3.0).abs() < 1e-12);
    }
}
