//! # domino-sim
//!
//! Deterministic discrete-event simulation substrate for the DOMINO
//! (CoNEXT'13) reproduction.
//!
//! The paper evaluates DOMINO with trace-driven ns-3 simulations; this crate
//! provides the equivalent foundation in Rust:
//!
//! * [`time`] — integer-nanosecond simulation clock types,
//! * [`engine`] — a hierarchical timer-wheel event queue with FIFO
//!   tie-breaking, O(1) generation-checked cancellation, and
//!   horizon-bounded delivery,
//! * [`rng`] — per-subsystem deterministic random streams.
//!
//! Everything is a pure function of `(configuration, seed)`; there is no
//! wall-clock access anywhere in the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rng;
pub mod snapshot;
pub mod time;
mod wheel;

pub use engine::{Engine, EventHandle, Livelock};
pub use rng::SimRng;
pub use snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
pub use time::{SimDuration, SimTime};
