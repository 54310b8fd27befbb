//! Reachability helpers.
//!
//! `et_sim` needs these for its system-death checks: once batteries start
//! dying, jobs can only continue while every live module duplicate remains
//! reachable through live relays.

use crate::{DiGraph, NodeId};

/// Returns the set of nodes reachable from `start` (including `start`),
/// walking only edges whose *endpoints* both satisfy `alive`.
///
/// Dead nodes cannot relay packets, so reachability in a partially-dead
/// network must skip them entirely; a dead `start` reaches nothing.
#[must_use]
pub fn reachable_from<F: Fn(NodeId) -> bool>(
    graph: &DiGraph,
    start: NodeId,
    alive: F,
) -> Vec<NodeId> {
    if !graph.contains(start) || !alive(start) {
        return Vec::new();
    }
    let mut visited = vec![false; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    let mut out = vec![start];
    while let Some(cur) = queue.pop_front() {
        for (next, _) in graph.neighbors(cur) {
            if !visited[next.index()] && alive(next) {
                visited[next.index()] = true;
                out.push(next);
                queue.push_back(next);
            }
        }
    }
    out
}

/// `true` if every node can reach every other node.
///
/// Uses forward BFS from node 0 plus a BFS over the in-links (the
/// transposed graph), which suffices for strong connectivity.
#[must_use]
pub fn is_strongly_connected(graph: &DiGraph) -> bool {
    let n = graph.node_count();
    if n <= 1 {
        return true;
    }
    let start = NodeId::new(0);
    if reachable_from(graph, start, |_| true).len() != n {
        return false;
    }
    // BFS on the reverse graph.
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(start);
    let mut count = 1;
    while let Some(cur) = queue.pop_front() {
        for (from, _) in graph.in_neighbors(cur) {
            if !visited[from.index()] {
                visited[from.index()] = true;
                count += 1;
                queue.push_back(from);
            }
        }
    }
    count == n
}

/// `true` if `to` is reachable from `from` through nodes satisfying `alive`.
#[must_use]
pub fn is_reachable_via<F: Fn(NodeId) -> bool>(
    graph: &DiGraph,
    from: NodeId,
    to: NodeId,
    alive: F,
) -> bool {
    if from == to {
        return alive(from);
    }
    reachable_from(graph, from, alive).contains(&to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use etx_units::Length;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    #[test]
    fn full_mesh_is_strongly_connected() {
        let g = topology::Mesh2D::square(4, cm(1.0)).to_graph();
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn one_way_edge_is_not_strongly_connected() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn empty_and_singleton_are_trivially_connected() {
        assert!(is_strongly_connected(&DiGraph::new(0)));
        assert!(is_strongly_connected(&DiGraph::new(1)));
        assert!(!is_strongly_connected(&DiGraph::new(2)));
    }

    #[test]
    fn dead_nodes_partition_a_line() {
        // 0 - 1 - 2 - 3 with node 1 dead: 0 is isolated from {2, 3}.
        let g = topology::line(4, cm(1.0));
        let alive = |n: NodeId| n.index() != 1;
        let from0 = reachable_from(&g, NodeId::new(0), alive);
        assert_eq!(from0, vec![NodeId::new(0)]);
        assert!(!is_reachable_via(&g, NodeId::new(0), NodeId::new(3), alive));
        assert!(is_reachable_via(&g, NodeId::new(2), NodeId::new(3), alive));
    }

    #[test]
    fn dead_start_reaches_nothing() {
        let g = topology::line(3, cm(1.0));
        assert!(reachable_from(&g, NodeId::new(0), |_| false).is_empty());
        assert!(!is_reachable_via(&g, NodeId::new(0), NodeId::new(0), |_| false));
    }

    #[test]
    fn reachable_from_unknown_node_is_empty() {
        let g = topology::line(3, cm(1.0));
        assert!(reachable_from(&g, NodeId::new(9), |_| true).is_empty());
    }

    #[test]
    fn mesh_survives_single_interior_death() {
        let mesh = topology::Mesh2D::square(4, cm(1.0));
        let g = mesh.to_graph();
        let dead = mesh.node_at(2, 2).unwrap();
        let alive = |n: NodeId| n != dead;
        let start = mesh.node_at(1, 1).unwrap();
        let reach = reachable_from(&g, start, alive);
        assert_eq!(reach.len(), 15); // everyone else still reachable
    }
}
