//! SWAP routing onto a device topology.
//!
//! The paper's QEC agent is topology-specific and its §IV-B discussion
//! ("requiring the devices to follow a fully-connected lattice design")
//! boils down to routing cost: on a non-native device every two-qubit
//! interaction between distant qubits pays SWAP overhead. This module
//! makes that cost concrete: it routes a CX-basis circuit onto an
//! arbitrary coupling map with a BFS-path router and reports the overhead
//! the embedding incurs.

use crate::topology::Topology;
use qcir::circuit::{Circuit, Op};

use std::fmt;

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The device has fewer qubits than the circuit.
    TooFewQubits { circuit: usize, device: usize },
    /// The device graph is disconnected.
    Disconnected,
    /// The circuit contains a gate wider than two qubits (transpile first).
    WideGate { gate: String },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooFewQubits { circuit, device } => {
                write!(
                    f,
                    "circuit needs {circuit} qubits but the device has {device}"
                )
            }
            RouteError::Disconnected => write!(f, "device coupling graph is disconnected"),
            RouteError::WideGate { gate } => {
                write!(
                    f,
                    "gate `{gate}` is wider than two qubits; transpile to the CX basis first"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A routed circuit plus its layout bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The physical circuit (over `topology.num_qubits()` qubits, SWAPs
    /// inserted; classical register unchanged).
    pub circuit: Circuit,
    /// Final layout: `layout[logical] = physical`.
    pub final_layout: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
}

impl Routed {
    /// SWAP overhead relative to the original two-qubit gate count.
    pub fn overhead(&self, original: &Circuit) -> f64 {
        let two_qubit = original
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Gate { gate, .. } if gate.num_qubits() == 2))
            .count();
        if two_qubit == 0 {
            return 0.0;
        }
        self.swap_count as f64 / two_qubit as f64
    }
}

/// Routes `circuit` onto `device` with a BFS shortest-path SWAP router.
///
/// Measurement outcomes are preserved exactly: measures are re-targeted
/// through the live layout, so the routed circuit's classical-outcome
/// distribution equals the original's (tested).
///
/// # Errors
///
/// Returns [`RouteError`] when the device is too small/disconnected or the
/// circuit has gates wider than two qubits.
pub fn route(circuit: &Circuit, device: &Topology) -> Result<Routed, RouteError> {
    if device.num_qubits() < circuit.num_qubits() {
        return Err(RouteError::TooFewQubits {
            circuit: circuit.num_qubits(),
            device: device.num_qubits(),
        });
    }
    if !device.is_connected() {
        return Err(RouteError::Disconnected);
    }
    for op in circuit.ops() {
        if let Op::Gate { gate, .. } | Op::CondGate { gate, .. } = op {
            if gate.num_qubits() > 2 {
                return Err(RouteError::WideGate {
                    gate: gate.name().to_string(),
                });
            }
        }
    }

    // layout[logical] = physical; trivial initial placement.
    let mut layout: Vec<usize> = (0..circuit.num_qubits()).collect();
    let mut out = Circuit::new(device.num_qubits(), circuit.num_clbits());
    let mut swap_count = 0usize;

    let bring_adjacent =
        |out: &mut Circuit, layout: &mut Vec<usize>, swap_count: &mut usize, a: usize, b: usize| {
            // Move physical(a) along a shortest path toward physical(b).
            loop {
                let pa = layout[a];
                let pb = layout[b];
                if device.has_edge(pa, pb) {
                    break;
                }
                let path = shortest_path(device, pa, pb);
                debug_assert!(path.len() >= 3, "non-adjacent implies a midpoint");
                let next = path[1];
                out.swap(pa, next);
                *swap_count += 1;
                // Update the layout: whichever logical sits on `next` moves.
                if let Some(other) = layout.iter().position(|&p| p == next) {
                    layout[other] = pa;
                }
                layout[a] = next;
            }
        };

    for op in circuit.ops() {
        match op {
            Op::Gate { gate, qubits } => match qubits.len() {
                1 => {
                    out.push_gate(*gate, &[layout[qubits[0]]]);
                }
                2 => {
                    bring_adjacent(&mut out, &mut layout, &mut swap_count, qubits[0], qubits[1]);
                    out.push_gate(*gate, &[layout[qubits[0]], layout[qubits[1]]]);
                }
                _ => unreachable!("validated above"),
            },
            Op::CondGate {
                gate,
                qubits,
                clbit,
                value,
            } => {
                if qubits.len() == 2 {
                    bring_adjacent(&mut out, &mut layout, &mut swap_count, qubits[0], qubits[1]);
                }
                let phys: Vec<usize> = qubits.iter().map(|&q| layout[q]).collect();
                out.cond_gate(*gate, &phys, *clbit, *value);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(layout[*qubit], *clbit);
            }
            Op::Reset { qubit } => {
                out.reset(layout[*qubit]);
            }
            Op::Barrier { qubits } => {
                let phys: Vec<usize> = qubits.iter().map(|&q| layout[q]).collect();
                out.try_push(Op::Barrier { qubits: phys })
                    .expect("barrier in range");
            }
        }
    }

    Ok(Routed {
        circuit: out,
        final_layout: layout,
        swap_count,
    })
}

/// BFS shortest path between two physical qubits (inclusive endpoints).
fn shortest_path(device: &Topology, from: usize, to: usize) -> Vec<usize> {
    use std::collections::VecDeque;
    let n = device.num_qubits();
    let mut prev = vec![usize::MAX; n];
    prev[from] = from;
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            break;
        }
        for &v in device.neighbors(u) {
            if prev[v] == usize::MAX {
                prev[v] = u;
                queue.push_back(v);
            }
        }
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur];
        path.push(cur);
    }
    path.reverse();
    path
}

/// `true` when every two-qubit gate in the circuit respects the coupling
/// map.
pub fn respects_topology(circuit: &Circuit, device: &Topology) -> bool {
    circuit.ops().iter().all(|op| match op {
        Op::Gate { qubits, .. } | Op::CondGate { qubits, .. } if qubits.len() == 2 => {
            device.has_edge(qubits[0], qubits[1])
        }
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::exec::Executor;

    fn ghz_line_test(n: usize, device: &Topology) {
        let mut qc = Circuit::new(n, n);
        qc.h(0);
        // Star pattern: all CX from qubit 0, maximally non-local.
        for q in 1..n {
            qc.cx(0, q);
        }
        qc.measure_all();
        let routed = route(&qc, device).expect("routes");
        assert!(
            respects_topology(&routed.circuit, device),
            "routed circuit must respect the coupling map"
        );
        // Outcome distributions must be identical.
        let original = Executor::ideal_distribution(&qc, 0);
        let mapped = Executor::ideal_distribution(&routed.circuit, 0);
        assert!(
            original.tvd(&mapped) < 1e-9,
            "distribution changed: tvd {}",
            original.tvd(&mapped)
        );
    }

    #[test]
    fn routes_star_ghz_onto_line() {
        ghz_line_test(5, &Topology::line(5));
    }

    #[test]
    fn routes_onto_grid() {
        ghz_line_test(6, &Topology::grid(2, 3));
    }

    #[test]
    fn routes_onto_heavy_hex() {
        let device = Topology::heavy_hex(2, 2);
        ghz_line_test(5, &device);
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let mut qc = Circuit::new(3, 3);
        qc.h(0).cx(0, 1).cx(1, 2).measure_all();
        let routed = route(&qc, &Topology::line(3)).expect("routes");
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.overhead(&qc), 0.0);
    }

    #[test]
    fn line_device_costs_swaps_for_distant_gates() {
        let mut qc = Circuit::new(4, 4);
        qc.h(0).cx(0, 3).measure_all();
        let routed = route(&qc, &Topology::line(4)).expect("routes");
        assert!(routed.swap_count >= 2, "swaps: {}", routed.swap_count);
        assert!(respects_topology(&routed.circuit, &Topology::line(4)));
        let original = Executor::ideal_distribution(&qc, 0);
        let mapped = Executor::ideal_distribution(&routed.circuit, 0);
        assert!(original.tvd(&mapped) < 1e-9);
    }

    #[test]
    fn teleportation_with_conditionals_routes_correctly() {
        let qc = qalgo::teleport::teleport_one();
        let device = Topology::line(5);
        let routed = route(&qc, &device).expect("routes");
        assert!(respects_topology(&routed.circuit, &device));
        let counts = Executor::ideal()
            .try_run(&routed.circuit, 1000, 3)
            .expect("routed teleport is dense-simulable");
        // c2 (the teleported qubit) must always read 1.
        for (word, count) in counts.iter() {
            if count > 0 {
                assert!(word.bit(2), "c2 must be 1 in {}", word.bitstring(3));
            }
        }
    }

    #[test]
    fn full_device_never_needs_swaps() {
        let mut qc = Circuit::new(4, 4);
        qc.h(0).cx(0, 3).cx(1, 2).cx(0, 2).measure_all();
        let routed = route(&qc, &Topology::full(4)).expect("routes");
        assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn heavy_hex_costs_more_than_grid() {
        // The paper's §IV-B point, quantified: the same circuit pays more
        // SWAP overhead on heavy-hex than on a grid.
        let mut qc = Circuit::new(8, 8);
        qc.h(0);
        for q in 1..8 {
            qc.cx(0, q);
        }
        qc.measure_all();
        let grid = route(&qc, &Topology::grid(3, 3)).expect("grid routes");
        let hex = route(&qc, &Topology::heavy_hex(2, 2)).expect("hex routes");
        assert!(
            hex.swap_count >= grid.swap_count,
            "hex {} vs grid {}",
            hex.swap_count,
            grid.swap_count
        );
    }

    #[test]
    fn errors_are_reported() {
        let mut qc = Circuit::new(5, 0);
        qc.h(0);
        assert!(matches!(
            route(&qc, &Topology::line(3)),
            Err(RouteError::TooFewQubits { .. })
        ));
        let disconnected = Topology::new("split", 6, &[(0, 1), (2, 3)]);
        assert_eq!(route(&qc, &disconnected), Err(RouteError::Disconnected));
        let mut wide = Circuit::new(3, 0);
        wide.ccx(0, 1, 2);
        assert!(matches!(
            route(&wide, &Topology::line(3)),
            Err(RouteError::WideGate { .. })
        ));
    }

    #[test]
    fn transpile_then_route_handles_ccx() {
        let mut qc = Circuit::new(3, 3);
        qc.h(0).ccx(0, 1, 2).measure_all();
        let basis = qcir::transpile::transpile(&qc);
        let device = Topology::line(3);
        let routed = route(&basis, &device).expect("routes");
        assert!(respects_topology(&routed.circuit, &device));
        let original = Executor::ideal_distribution(&qc, 0);
        let mapped = Executor::ideal_distribution(&routed.circuit, 0);
        assert!(
            original.tvd(&mapped) < 1e-6,
            "tvd {}",
            original.tvd(&mapped)
        );
    }
}
