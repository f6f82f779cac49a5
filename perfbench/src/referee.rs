//! Answer referees: plain std-only BFS, Dijkstra and f64 PPR power
//! iteration over a CSR built here from the graph's edge list, sharing no
//! code with the program under test.
//!
//! BFS levels and SSSP distances must match exactly. PPR must match the
//! f64 iteration run for the same number of steps within [`PPR_L1_TOL`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use alpha_pim::serve::QueryResult;
use alpha_pim_sparse::Graph;

/// Allowed L1 distance between the program's f32 PPR scores and the f64
/// reference (scores sum to at most 1).
pub const PPR_L1_TOL: f64 = 1e-3;

/// Unreached vertex marker in both BFS levels and SSSP distances.
const UNREACHED: u32 = u32::MAX;

/// Out-edge lists of a graph, edge weights included.
pub struct Referee {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    alpha: f64,
}

impl Referee {
    /// Builds the out-edge CSR of `graph` (duplicate edges kept, as the
    /// program's transition matrix keeps them).
    pub fn new(graph: &Graph, ppr_alpha: f32) -> Self {
        let adj = graph.adjacency();
        let n = graph.nodes() as usize;
        let mut offsets = vec![0usize; n + 1];
        for &r in adj.rows() {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; adj.nnz()];
        let mut weights = vec![0u32; adj.nnz()];
        for ((&r, &c), &w) in adj.rows().iter().zip(adj.cols()).zip(adj.vals()) {
            let slot = &mut fill[r as usize];
            targets[*slot] = c;
            weights[*slot] = w;
            *slot += 1;
        }
        Referee {
            offsets,
            targets,
            weights,
            alpha: f64::from(ppr_alpha),
        }
    }

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    fn out(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Hop levels from `source`.
    pub fn bfs(&self, source: u32) -> Vec<u32> {
        let mut level = vec![UNREACHED; self.n()];
        let mut queue = VecDeque::from([source as usize]);
        level[source as usize] = 0;
        while let Some(v) = queue.pop_front() {
            for e in self.out(v) {
                let t = self.targets[e] as usize;
                if level[t] == UNREACHED {
                    level[t] = level[v] + 1;
                    queue.push_back(t);
                }
            }
        }
        level
    }

    /// Weighted shortest distances from `source` (Dijkstra).
    pub fn sssp(&self, source: u32) -> Vec<u32> {
        let mut dist = vec![u64::MAX; self.n()];
        let mut heap = BinaryHeap::from([Reverse((0u64, source as usize))]);
        dist[source as usize] = 0;
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for e in self.out(v) {
                let t = self.targets[e] as usize;
                let nd = d + u64::from(self.weights[e]);
                if nd < dist[t] {
                    dist[t] = nd;
                    heap.push(Reverse((nd, t)));
                }
            }
        }
        dist.into_iter()
            .map(|d| u32::try_from(d).unwrap_or(UNREACHED))
            .collect()
    }

    /// `iterations` steps of `x ← α·Pᵀx + (1−α)·e_s` from `x = e_s`.
    pub fn ppr(&self, source: u32, iterations: u32) -> Vec<f64> {
        let n = self.n();
        let mut x = vec![0.0f64; n];
        x[source as usize] = 1.0;
        for _ in 0..iterations {
            let mut y = vec![0.0f64; n];
            for (v, &xv) in x.iter().enumerate() {
                let range = self.out(v);
                if xv == 0.0 || range.is_empty() {
                    continue;
                }
                let share = xv / range.len() as f64;
                for e in range {
                    y[self.targets[e] as usize] += share;
                }
            }
            for yi in &mut y {
                *yi *= self.alpha;
            }
            y[source as usize] += 1.0 - self.alpha;
            x = y;
        }
        x
    }

    /// Checks one answer for a query from `source`; `Err` names the
    /// mismatch.
    pub fn check(&self, source: u32, result: &QueryResult) -> Result<(), String> {
        match result {
            QueryResult::Bfs(r) => exact("bfs", source, &r.levels, &self.bfs(source)),
            QueryResult::Sssp(r) => exact("sssp", source, &r.distances, &self.sssp(source)),
            QueryResult::Ppr(r) => {
                let reference = self.ppr(source, r.report.num_iterations());
                if r.scores.len() != reference.len() {
                    return Err(format!(
                        "ppr from {source}: {} scores for {} vertices",
                        r.scores.len(),
                        reference.len()
                    ));
                }
                let l1: f64 = r
                    .scores
                    .iter()
                    .zip(&reference)
                    .map(|(&a, &b)| (f64::from(a) - b).abs())
                    .sum();
                if l1 <= PPR_L1_TOL {
                    Ok(())
                } else {
                    Err(format!(
                        "ppr from {source}: L1 distance {l1:e} > {PPR_L1_TOL:e}"
                    ))
                }
            }
        }
    }
}

fn exact(app: &str, source: u32, got: &[u32], want: &[u32]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{app} from {source}: {} of {} values, first mismatch at vertex {first}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_pim_sparse::Coo;

    #[test]
    fn referees_agree_with_a_hand_worked_graph() {
        // 0 → 1 (w 5), 0 → 2 (w 1), 2 → 1 (w 1), 3 isolated.
        let coo = Coo::from_entries(4, 4, vec![(0, 1, 5), (0, 2, 1), (2, 1, 1)]).unwrap();
        let r = Referee::new(&Graph::from_coo(coo), 0.85);
        assert_eq!(r.bfs(0), vec![0, 1, 1, UNREACHED]);
        assert_eq!(r.sssp(0), vec![0, 2, 1, UNREACHED]);
        let x = r.ppr(0, 1);
        // The f32 damping factor widens to f64 with a ~2e-8 error.
        assert!((x[0] - 0.15).abs() < 1e-6 && (x[1] - 0.425).abs() < 1e-6);
    }
}
