//! # domino-mac
//!
//! The MAC-layer engines of the DOMINO (CoNEXT'13) reproduction. Four
//! channel-access schemes over the same medium, topology and traffic
//! substrates:
//!
//! * [`dcf`] — IEEE 802.11 DCF (CSMA/CA), the distributed baseline;
//! * [`centaur`] — the CENTAUR-style hybrid: centrally batched downlink
//!   epochs with carrier-sense alignment, DCF uplink;
//! * [`omniscient`] — an idealized, perfectly synchronized centralized
//!   scheduler (the upper bound of Fig 2);
//! * [`domino`] — the paper's contribution: relative scheduling executed
//!   through signature triggers, with ROP polling, fake-link keep-alives
//!   and missed-ACK retransmission.
//!
//! Shared pieces: [`timing`] (802.11g constants and DOMINO slot
//! geometry), [`workload`] (flow specs and run statistics), [`flows`]
//! (traffic events and metering), and [`world`] — the one run path: the
//! [`World`] trait each scheme implements and the generic driver [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centaur;
pub mod dcf;
pub mod domino;
pub mod flows;
pub mod omniscient;
pub mod timing;
pub mod workload;
pub mod world;

pub use centaur::CentaurWorld;
pub use dcf::DcfWorld;
pub use domino::DominoWorld;
pub use omniscient::OmniWorld;
pub use world::{run, Checkpoints, Core, RunOptions, Setup, World};
pub use workload::{FlowKind, FlowSpec, RunStats, Workload};
