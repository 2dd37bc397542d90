//! # oscillator — the miniapplication of §3.3
//!
//! A lightweight proxy data source: a collection of periodic, damped, or
//! decaying [`Oscillator`]s placed in a 3D domain, each convolved with a
//! Gaussian of prescribed width. The global grid is partitioned across
//! ranks by regular decomposition; every timestep each rank fills its
//! subgrid with the sum of the convolved oscillator values —
//! `O(m · N³)` work per rank, embarrassingly parallel, with optional
//! per-step synchronization (off by default, as in the paper's runs).
//!
//! The [`adaptor::OscillatorAdaptor`] exposes the field **zero-copy**
//! through the SENSEI data adaptor API: both the miniapp and the
//! analyses work on structured grids, so no mapping work is needed —
//! the property behind the "no measurable difference" result of
//! Figs. 3–4.

pub mod adaptor;
pub mod osc;
pub mod sim;

pub use adaptor::OscillatorAdaptor;
pub use osc::{format_deck, parse_deck, Oscillator, OscillatorKind};
pub use sim::{SimConfig, Simulation};

/// The standard demo oscillator set used across examples and tests —
/// three oscillators (one of each kind) in the unit cube, mirroring the
/// miniapp's sample input deck.
pub fn demo_oscillators() -> Vec<Oscillator> {
    vec![
        Oscillator {
            kind: OscillatorKind::Periodic,
            center: [0.3, 0.3, 0.5],
            radius: 0.2,
            omega: 2.0 * std::f64::consts::PI,
            zeta: 0.0,
        },
        Oscillator {
            kind: OscillatorKind::Damped,
            center: [0.7, 0.7, 0.3],
            radius: 0.25,
            omega: 4.0 * std::f64::consts::PI,
            zeta: 0.1,
        },
        Oscillator {
            kind: OscillatorKind::Decaying,
            center: [0.5, 0.2, 0.8],
            radius: 0.15,
            omega: 1.0,
            zeta: 0.0,
        },
    ]
}
