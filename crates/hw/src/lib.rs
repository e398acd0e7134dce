//! # microfaas-hw
//!
//! Hardware models for both evaluation clusters:
//!
//! * [`boot`] — the worker-OS boot-time pipeline of the paper's Fig. 1
//!   (stages A–I, with the published 1.51 s / 0.96 s endpoints);
//! * [`power`] — device power models (SBC, rack server) from the paper's
//!   appendix, in watts;
//! * [`sbc`] — the BeagleBone Black worker as a lifecycle state machine
//!   (off → booting → idle → executing → rebooting) over the trace's
//!   `WorkerState`, with the checked step every node model takes;
//! * [`server`] — the Opteron rack server hosting QEMU microVMs, with CPU
//!   contention and the utilization→power curve behind Figs. 4 and 5;
//! * [`gpio`] — the PWR_BUT power-control wiring between the
//!   orchestration plane and each worker;
//! * [`reliability`] — Monte-Carlo fleet failure injection from the
//!   published MTBF figures of the paper's footnote 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod gpio;
pub mod power;
pub mod reliability;
pub mod sbc;
pub mod server;

pub use boot::{BootPlatform, BootProfile, BootStage, BootTime};
pub use power::{SbcPowerModel, ServerPowerModel};
pub use sbc::SbcNode;
pub use server::RackServer;
