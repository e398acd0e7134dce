//! # microfaas
//!
//! The platform core of the MicroFaaS reproduction: the orchestration
//! plane, the two evaluation clusters, and the experiment drivers that
//! regenerate every figure and table of the paper.
//!
//! * [`arrivals`] — production traffic shapes: bursty/diurnal/flash
//!   arrival processes, popularity skew, and tenant classes (see
//!   `docs/WORKLOADS.md`);
//! * [`cache`] — the content-addressed result cache and in-flight
//!   request coalescing (see `docs/CACHING.md`);
//! * [`config`] — workload mixes and run-to-run jitter;
//! * [`job`] — invocations and timing records;
//! * [`micro`] — the MicroFaaS cluster (SBC workers, GPIO power gating,
//!   reboot-between-jobs, run-to-completion);
//! * [`conventional`] — the virtualization-based baseline (microVMs on a
//!   rack server with CPU contention and an idle power floor); both
//!   clusters are node classes of one closed-loop engine, which owns the
//!   job lifecycle and fault recovery for either;
//! * [`report`] — run results: throughput, energy, per-function stats;
//! * [`recovery`] — retry/backoff, crash detection, and load-shedding
//!   policies for injected faults (see `docs/FAILURE_MODEL.md`);
//! * [`openloop`] — the arrival-driven engine; its
//!   `run_open_loop_monitored_*` entry points tap a run's event and
//!   completion streams into time-resolved telemetry windows (see
//!   `docs/MONITORING.md`);
//! * [`experiment`] — one function per paper figure/table.
//!
//! # Examples
//!
//! Reproduce the headline comparison (scaled down for speed):
//!
//! ```
//! use microfaas::config::WorkloadMix;
//! use microfaas::conventional::{run_conventional, ConventionalConfig};
//! use microfaas::micro::{run_microfaas, MicroFaasConfig};
//!
//! let mix = WorkloadMix::quick();
//! let sbc = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 42));
//! let vm = run_conventional(&ConventionalConfig::paper_baseline(mix, 42));
//! let gain = vm.joules_per_function().unwrap_or(f64::NAN)
//!     / sbc.joules_per_function().unwrap_or(f64::NAN);
//! assert!(gain > 4.0, "MicroFaaS should be >4x more energy-efficient");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod cache;
mod closedloop;
pub mod config;
pub mod conventional;
pub mod experiment;
pub mod gateway;
pub mod job;
pub mod micro;
mod monitor;
pub(crate) mod netmap;
pub mod openloop;
pub mod recovery;
pub mod registry;
pub mod report;
pub mod timeline;

pub use arrivals::{
    ArrivalProcess, ArrivalState, FunctionPicker, Popularity, Scenario, TenantClass, TenantSummary,
    TenantTracker,
};
pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use config::{Jitter, WorkloadMix};
pub use conventional::{run_conventional, ConventionalConfig};
pub use job::{Job, JobRecord};
pub use micro::{run_microfaas, MicroFaasConfig};
pub use report::{ClusterRun, DroppedJob, FaultSummary, Outcome};
