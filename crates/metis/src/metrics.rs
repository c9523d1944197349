//! Partition quality metrics: edge-cut, balance, and redistribution cost.
//!
//! These are the terms of the Unified Repartitioning Algorithm's objective
//! `|Ecut| + α·|Vmove|` (Schloegel, Karypis, Kumar — reference \[19\] of the
//! paper): minimize communication during computation plus α times the data
//! volume moved by the repartitioning itself.

use crate::graph::Graph;

/// Total weight of edges whose endpoints lie in different parts.
pub fn edge_cut(g: &Graph, part: &[u32]) -> f64 {
    assert_eq!(part.len(), g.nv());
    let mut cut = 0.0;
    for v in 0..g.nv() {
        for (u, w) in g.neighbors(v) {
            if v < u && part[v] != part[u] {
                cut += w;
            }
        }
    }
    cut
}

/// Per-part total vertex weight.
pub fn part_weights(g: &Graph, part: &[u32], k: usize) -> Vec<f64> {
    assert_eq!(part.len(), g.nv());
    let mut w = vec![0.0; k];
    #[allow(clippy::needless_range_loop)] // v indexes both part and g.vwgt
    for v in 0..g.nv() {
        let p = part[v] as usize;
        assert!(p < k, "part id {p} out of range");
        w[p] += g.vwgt[v];
    }
    w
}

/// Load imbalance: max part weight over average part weight (≥ 1; 1 is
/// perfect).
pub fn imbalance(g: &Graph, part: &[u32], k: usize) -> f64 {
    let w = part_weights(g, part, k);
    let total: f64 = w.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let avg = total / k as f64;
    w.iter().cloned().fold(0.0, f64::max) / avg
}

/// Total migration volume: sum of `vsize` over vertices whose part changed.
pub fn vmove(g: &Graph, old: &[u32], new: &[u32]) -> f64 {
    assert_eq!(old.len(), g.nv());
    assert_eq!(new.len(), g.nv());
    (0..g.nv())
        .filter(|&v| old[v] != new[v])
        .map(|v| g.vsize[v])
        .sum()
}

/// The Unified Repartitioning Algorithm's objective:
/// `edge_cut + alpha * vmove` (Equation 1 of the paper).
pub fn ura_cost(g: &Graph, old: &[u32], new: &[u32], alpha: f64) -> f64 {
    edge_cut(g, new) + alpha * vmove(g, old, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = Graph::path(4); // 0-1-2-3
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 1.0);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 3.0);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn weighted_edge_cut() {
        let g = Graph::from_edges(3, &[(0, 1, 5.0), (1, 2, 2.0)], vec![1.0; 3]);
        assert_eq!(edge_cut(&g, &[0, 1, 1]), 5.0);
        assert_eq!(edge_cut(&g, &[0, 0, 1]), 2.0);
    }

    #[test]
    fn imbalance_of_perfect_split_is_one() {
        let g = Graph::path(4);
        assert!((imbalance(&g, &[0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        // 3-1 split: max 3, avg 2 → 1.5.
        assert!((imbalance(&g, &[0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn vmove_uses_vsize() {
        let g =
            Graph::from_edges_with_sizes(3, &[(0, 1, 1.0)], vec![1.0; 3], vec![10.0, 20.0, 30.0]);
        assert_eq!(vmove(&g, &[0, 0, 0], &[0, 1, 1]), 50.0);
        assert_eq!(vmove(&g, &[0, 1, 1], &[0, 1, 1]), 0.0);
    }

    #[test]
    fn ura_cost_combines_terms() {
        let g = Graph::path(4);
        let old = [0, 0, 1, 1];
        let new = [0, 1, 1, 1];
        // cut(new)=1, vmove=1 (vertex 1 moved, vsize 1).
        assert!((ura_cost(&g, &old, &new, 2.0) - 3.0).abs() < 1e-12);
        assert!((ura_cost(&g, &old, &old, 2.0) - 1.0).abs() < 1e-12);
    }
}
