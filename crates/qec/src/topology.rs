//! Device coupling maps.
//!
//! The paper's QEC agent is *topology-specific*: it synthesizes a decoder
//! from the device's qubit connectivity and must be regenerated per device
//! (their §IV-B drawback discussion). This module provides the coupling
//! maps the agent consumes, including a heavy-hex graph shaped like IBM's
//! Eagle devices (Brisbane).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// An undirected device coupling map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    num_qubits: usize,
    edges: BTreeSet<(usize, usize)>,
    /// Neighbours of each qubit, ascending (derived from `edges`).
    adjacency: Vec<Vec<usize>>,
}

impl Topology {
    /// Creates a topology from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics when an edge references a qubit `>= num_qubits` or is a
    /// self-loop.
    pub fn new(name: impl Into<String>, num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut set = BTreeSet::new();
        for &(a, b) in edges {
            assert!(a != b, "self-loop in coupling map");
            assert!(a < num_qubits && b < num_qubits, "edge out of range");
            set.insert((a.min(b), a.max(b)));
        }
        // The set iterates (a, b) with a < b in ascending order, so each
        // qubit's neighbours arrive ascending: first those below it, then
        // those above.
        let mut adjacency = vec![Vec::new(); num_qubits];
        for &(a, b) in &set {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        Topology {
            name: name.into(),
            num_qubits,
            edges: set,
            adjacency,
        }
    }

    /// A linear chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Topology::new(format!("line-{n}"), n, &edges)
    }

    /// A full `rows x cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Topology::new(format!("grid-{rows}x{cols}"), rows * cols, &edges)
    }

    /// A fully connected device.
    pub fn full(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Topology::new(format!("full-{n}"), n, &edges)
    }

    /// A heavy-hex lattice with `rows` rows of `cols` hexagon cells,
    /// shaped like IBM Eagle devices (Brisbane is 127 qubits of this
    /// family). Degree is capped at 3 everywhere, which is exactly what
    /// frustrates naive surface-code embeddings and motivates the paper's
    /// "fully-connected lattice" requirement.
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        // Construction: horizontal qubit rows of length 2*cols+1, vertical
        // bridge qubits connecting alternating columns between adjacent rows.
        let row_len = 2 * cols + 1;
        let num_rows = rows + 1;
        let mut edges = Vec::new();
        let row_base = |r: usize| r * (row_len + cols + 1);
        // Horizontal edges within each row.
        for r in 0..num_rows {
            for c in 0..row_len - 1 {
                edges.push((row_base(r) + c, row_base(r) + c + 1));
            }
        }
        // Bridges: row r has cols+1 bridge qubits after its row_len qubits.
        let mut total = 0;
        for r in 0..num_rows {
            total = row_base(r) + row_len;
            if r == num_rows - 1 {
                break;
            }
            for b in 0..=cols {
                let bridge = row_base(r) + row_len + b;
                // Alternate attachment columns per row parity.
                let col = if r % 2 == 0 {
                    2 * b
                } else {
                    (2 * b + 1).min(row_len - 1)
                };
                edges.push((row_base(r) + col, bridge));
                edges.push((bridge, row_base(r + 1) + col));
                total = bridge + 1;
            }
        }
        Topology::new(format!("heavy-hex-{rows}x{cols}"), total, &edges)
    }

    /// An IBM-Brisbane-like heavy-hex device (127-qubit scale).
    pub fn ibm_brisbane_like() -> Self {
        let mut t = Topology::heavy_hex(6, 6);
        t.name = "ibm-brisbane-like".to_string();
        t
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of coupling edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` when qubits `a` and `b` are coupled.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Iterates over the coupling edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Neighbours of `q`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when `q >= num_qubits`.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Degree of `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.neighbors(q).len()
    }

    /// Maximum degree across the device.
    pub fn max_degree(&self) -> usize {
        (0..self.num_qubits)
            .map(|q| self.degree(q))
            .max()
            .unwrap_or(0)
    }

    /// `true` when the coupling graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_qubits];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = queue.pop_front() {
            for &nb in self.neighbors(q) {
                if !seen[nb] {
                    seen[nb] = true;
                    count += 1;
                    queue.push_back(nb);
                }
            }
        }
        count == self.num_qubits
    }

    /// BFS shortest path length between two qubits, or `None` when
    /// disconnected.
    pub fn distance(&self, from: usize, to: usize) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.num_qubits];
        dist[from] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(q) = queue.pop_front() {
            for &nb in self.neighbors(q) {
                if dist[nb] == usize::MAX {
                    dist[nb] = dist[q] + 1;
                    if nb == to {
                        return Some(dist[nb]);
                    }
                    queue.push_back(nb);
                }
            }
        }
        None
    }

    /// `true` when the device can host a distance-`d` rotated surface code
    /// directly (needs a `(2d-1) x (2d-1)` grid minor; we use the practical
    /// proxy: enough qubits and degree-4 connectivity somewhere).
    ///
    /// Heavy-hex devices return `false` — the paper's observation that
    /// their decoder generation "requires the devices to follow a
    /// fully-connected lattice design".
    pub fn supports_surface_code(&self, d: usize) -> bool {
        let needed = 2 * d * d - 1; // data + ancilla qubits
        self.num_qubits >= needed && self.max_degree() >= 4
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} edges, max degree {})",
            self.name,
            self.num_qubits,
            self.edges.len(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let t = Topology::line(5);
        assert_eq!(t.num_qubits(), 5);
        assert_eq!(t.num_edges(), 4);
        assert!(t.has_edge(0, 1));
        assert!(!t.has_edge(0, 2));
        assert!(t.is_connected());
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.num_qubits(), 9);
        assert_eq!(t.num_edges(), 12);
        assert_eq!(t.degree(4), 4); // centre
        assert_eq!(t.degree(0), 2); // corner
        assert!(t.is_connected());
    }

    #[test]
    fn full_graph() {
        let t = Topology::full(4);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.max_degree(), 3);
    }

    #[test]
    fn heavy_hex_degree_capped_at_three() {
        let t = Topology::heavy_hex(3, 3);
        assert!(t.is_connected(), "heavy-hex must be connected");
        assert!(t.max_degree() <= 3, "heavy-hex degree is at most 3");
        assert!(t.num_qubits() > 20);
    }

    #[test]
    fn brisbane_like_scale() {
        let t = Topology::ibm_brisbane_like();
        assert!(t.num_qubits() >= 100, "qubits: {}", t.num_qubits());
        assert!(t.is_connected());
        assert!(t.max_degree() <= 3);
    }

    #[test]
    fn distance_on_line() {
        let t = Topology::line(6);
        assert_eq!(t.distance(0, 5), Some(5));
        assert_eq!(t.distance(2, 2), Some(0));
    }

    #[test]
    fn disconnected_distance_is_none() {
        let t = Topology::new("pair", 4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.distance(0, 3), None);
    }

    #[test]
    fn surface_code_support() {
        assert!(Topology::grid(5, 5).supports_surface_code(3));
        // Heavy-hex lacks degree-4 vertices.
        assert!(!Topology::ibm_brisbane_like().supports_surface_code(3));
        // Too few qubits.
        assert!(!Topology::grid(2, 2).supports_surface_code(3));
    }

    #[test]
    fn neighbors_keep_the_edge_scan_order() {
        for t in [
            Topology::line(6),
            Topology::grid(4, 5),
            Topology::heavy_hex(3, 3),
            Topology::ibm_brisbane_like(),
            Topology::full(6),
        ] {
            for q in 0..t.num_qubits() {
                // Reference: one pass over the sorted edge set.
                let scanned: Vec<usize> = t
                    .edges()
                    .filter_map(|(a, b)| match (a == q, b == q) {
                        (true, _) => Some(b),
                        (_, true) => Some(a),
                        _ => None,
                    })
                    .collect();
                assert_eq!(t.neighbors(q), scanned, "{} qubit {q}", t.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        Topology::new("bad", 2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        Topology::new("bad", 2, &[(0, 5)]);
    }
}
