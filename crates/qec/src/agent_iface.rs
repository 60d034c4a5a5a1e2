//! The interface the QEC Decoder Generation Agent consumes: synthesize a
//! [`DecoderSpec`] from a device [`Topology`], mirroring the paper's
//! "uses the topology of the quantum device to generate a decoder" (§III-A)
//! and its topology-specificity caveat (§IV-B).

use crate::memory::{DecoderKind, FailureTable, MAX_EXACT_DISTANCE};
use crate::topology::Topology;
use std::fmt;

/// Why decoder synthesis failed for a device.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The physical rate is not a probability: non-finite or outside
    /// `[0, 1]`.
    InvalidRate { rate: f64 },
    /// Device graph is disconnected.
    Disconnected,
    /// Device cannot host even the smallest surface code; the spec falls
    /// back to a repetition code when possible, otherwise this error.
    TooSmall { qubits: usize, needed: usize },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidRate { rate } => {
                write!(
                    f,
                    "physical error rate {rate} is not a probability in [0, 1]"
                )
            }
            SynthesisError::Disconnected => write!(f, "device coupling graph is disconnected"),
            SynthesisError::TooSmall { qubits, needed } => {
                write!(
                    f,
                    "device has {qubits} qubits but the smallest code needs {needed}"
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Which code family the synthesized decoder protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeFamily {
    /// Rotated surface code at the given distance.
    Surface { distance: usize },
    /// Bit-flip repetition code at the given distance (fallback for
    /// devices without a grid region, e.g. heavy-hex).
    Repetition { distance: usize },
}

/// A synthesized decoder specification: what the QEC agent hands back to
/// the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderSpec {
    /// Device the spec was synthesized for.
    pub device: String,
    /// Chosen code family and distance.
    pub family: CodeFamily,
    /// Decoder implementation.
    pub decoder: DecoderKind,
    /// Whether the device hosts the code natively or via SWAP-embedding
    /// (the paper's topology-specificity caveat: heavy-hex devices need
    /// embedding, captured here as `false`).
    pub native_layout: bool,
    /// Lifetime-extension factor at the calibration rate: `p / P_L(p)`
    /// with the exact code-capacity logical rate of the chosen code and
    /// decoder (surface codes: [`FailureTable::logical_error_rate`];
    /// repetition codes: the analytic majority-vote rate). Seed-free;
    /// `f64::INFINITY` when `P_L(p) = 0`.
    pub estimated_lifetime_extension: f64,
    /// Physical rate the estimate was computed at.
    pub calibration_rate: f64,
}

impl DecoderSpec {
    /// The effective noise-scaling factor to apply when re-simulating with
    /// corrections, mirroring the paper's Figure 4(c) methodology
    /// ("simulated our results using a lower error probability ...
    /// corresponding to the new error rate after QEC").
    pub fn noise_reduction_factor(&self) -> f64 {
        (1.0 / self.estimated_lifetime_extension).min(1.0)
    }
}

impl fmt::Display for DecoderSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let family = match self.family {
            CodeFamily::Surface { distance } => format!("surface(d={distance})"),
            CodeFamily::Repetition { distance } => format!("repetition(d={distance})"),
        };
        write!(
            f,
            "{family} + {} on {} ({}; ~{:.1}x lifetime at p={})",
            self.decoder.name(),
            self.device,
            if self.native_layout {
                "native"
            } else {
                "swap-embedded"
            },
            self.estimated_lifetime_extension,
            self.calibration_rate
        )
    }
}

/// Synthesizes a decoder spec for `device` at physical rate `p`.
///
/// Picks the largest surface-code distance (up to `max_distance`, odd,
/// capped at [`MAX_EXACT_DISTANCE`] = 5) that fits the device, falling
/// back to a repetition code for devices without a degree-4 grid region
/// (heavy-hex). The lifetime extension is `p / P_L(p)`, with the exact
/// code-capacity logical rate
/// `P_L(p) = Σ_w F_w · p^w · (1 − p)^(n − w)` read from the decoder's
/// [`FailureTable`] (built once per process), so it does not depend on
/// any seed. It is `f64::INFINITY` when `P_L(p) = 0`, e.g. at `p = 0`.
///
/// # Errors
///
/// Returns [`SynthesisError`] for a rate outside `[0, 1]` and for
/// disconnected or hopeless devices.
pub fn synthesize(
    device: &Topology,
    p: f64,
    max_distance: usize,
) -> Result<DecoderSpec, SynthesisError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SynthesisError::InvalidRate { rate: p });
    }
    if !device.is_connected() {
        return Err(SynthesisError::Disconnected);
    }
    // Largest odd d with 2d^2-1 qubits available and native layout support.
    let mut chosen: Option<(usize, bool)> = None;
    let mut d = max_distance.clamp(3, MAX_EXACT_DISTANCE);
    if d.is_multiple_of(2) {
        d -= 1;
    }
    while d >= 3 {
        if device.supports_surface_code(d) {
            chosen = Some((d, true));
            break;
        }
        d -= 2;
    }
    if chosen.is_none() {
        // SWAP-embedded d=3 surface code still needs the raw qubit count.
        if device.num_qubits() >= 17 {
            chosen = Some((3, false));
        }
    }
    if let Some((d, native)) = chosen {
        let kind = if d == 3 {
            DecoderKind::Lookup
        } else {
            DecoderKind::UnionFind
        };
        let table = FailureTable::get(d, kind).expect("d <= 5 tables exist");
        return Ok(DecoderSpec {
            device: device.name().to_string(),
            family: CodeFamily::Surface { distance: d },
            decoder: kind,
            native_layout: native,
            estimated_lifetime_extension: lifetime_extension(p, table.logical_error_rate(p)),
            calibration_rate: p,
        });
    }
    // Repetition fallback: needs 2d-1 qubits (data + ancilla).
    let d_rep = device.num_qubits().div_ceil(2).min(7);
    let d_rep = if d_rep.is_multiple_of(2) {
        d_rep.saturating_sub(1)
    } else {
        d_rep
    };
    if d_rep >= 3 {
        let code = crate::repetition::RepetitionCode::new(d_rep);
        return Ok(DecoderSpec {
            device: device.name().to_string(),
            family: CodeFamily::Repetition { distance: d_rep },
            decoder: DecoderKind::Greedy,
            native_layout: true,
            estimated_lifetime_extension: lifetime_extension(p, code.analytic_error_rate(p)),
            calibration_rate: p,
        });
    }
    Err(SynthesisError::TooSmall {
        qubits: device.num_qubits(),
        needed: 5,
    })
}

/// `p / p_logical`, or infinity when the code never fails.
fn lifetime_extension(p: f64, p_logical: f64) -> f64 {
    if p_logical > 0.0 {
        p / p_logical
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_device_gets_native_surface_code() {
        let device = Topology::grid(7, 7);
        let spec = synthesize(&device, 0.02, 5).expect("synthesis");
        match spec.family {
            CodeFamily::Surface { distance } => assert!(distance >= 3),
            other => panic!("expected surface code, got {other:?}"),
        }
        assert!(spec.native_layout);
        assert!(spec.estimated_lifetime_extension > 1.0, "{spec}");
    }

    #[test]
    fn heavy_hex_is_swap_embedded() {
        let device = Topology::ibm_brisbane_like();
        let spec = synthesize(&device, 0.02, 3).expect("synthesis");
        assert!(
            !spec.native_layout,
            "heavy-hex must be flagged as embedded: {spec}"
        );
    }

    #[test]
    fn tiny_device_falls_back_to_repetition() {
        let device = Topology::line(7);
        let spec = synthesize(&device, 0.02, 3).expect("synthesis");
        match spec.family {
            CodeFamily::Repetition { distance } => assert!(distance >= 3),
            other => panic!("expected repetition fallback, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_device_errors() {
        let device = Topology::new("split", 6, &[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(
            synthesize(&device, 0.02, 3),
            Err(SynthesisError::Disconnected)
        );
    }

    #[test]
    fn hopeless_device_errors() {
        let device = Topology::line(2);
        assert!(matches!(
            synthesize(&device, 0.02, 3),
            Err(SynthesisError::TooSmall { .. })
        ));
    }

    #[test]
    fn empty_device_is_too_small() {
        let device = Topology::new("empty", 0, &[]);
        assert_eq!(
            synthesize(&device, 0.02, 5),
            Err(SynthesisError::TooSmall {
                qubits: 0,
                needed: 5
            })
        );
    }

    #[test]
    fn noise_reduction_factor_inverts_extension() {
        let device = Topology::grid(5, 5);
        let spec = synthesize(&device, 0.03, 3).expect("synthesis");
        let f = spec.noise_reduction_factor();
        assert!(f <= 1.0 && f > 0.0, "factor {f}");
    }

    #[test]
    fn rates_outside_the_unit_interval_are_rejected() {
        let device = Topology::grid(7, 7);
        for rate in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match synthesize(&device, rate, 5) {
                Err(SynthesisError::InvalidRate { rate: got }) => {
                    assert_eq!(got.to_bits(), rate.to_bits())
                }
                other => panic!("rate {rate}: {other:?}"),
            }
        }
        // The repetition fallback validates too.
        assert!(matches!(
            synthesize(&Topology::line(7), -0.1, 3),
            Err(SynthesisError::InvalidRate { .. })
        ));
        assert!(synthesize(&device, 1.0, 5).is_ok());
    }

    #[test]
    fn zero_rate_extends_lifetime_without_bound() {
        for device in [
            Topology::grid(7, 7),
            Topology::ibm_brisbane_like(),
            Topology::line(7),
        ] {
            let spec = synthesize(&device, 0.0, 5).expect("synthesis");
            assert_eq!(spec.estimated_lifetime_extension, f64::INFINITY, "{spec}");
            assert_eq!(spec.noise_reduction_factor(), 0.0);
        }
    }

    #[test]
    fn extension_is_the_exact_table_rate() {
        let spec = synthesize(&Topology::grid(7, 7), 0.02, 5).expect("synthesis");
        let table = FailureTable::get(5, DecoderKind::UnionFind).unwrap();
        assert_eq!(
            spec.estimated_lifetime_extension.to_bits(),
            (0.02 / table.logical_error_rate(0.02)).to_bits()
        );
    }

    #[test]
    fn surface_distance_is_capped_at_the_exact_limit() {
        // A 17x17 grid hosts d = 7 natively, but synthesis stops at 5.
        let spec = synthesize(&Topology::grid(17, 17), 0.02, 9).expect("synthesis");
        assert_eq!(spec.family, CodeFamily::Surface { distance: 5 });
        let spec = synthesize(&Topology::grid(17, 17), 0.02, 4).expect("synthesis");
        assert_eq!(spec.family, CodeFamily::Surface { distance: 3 });
    }
}
