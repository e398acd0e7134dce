//! # microfaas-cli
//!
//! Library half of the `microfaas` command-line tool: a small,
//! dependency-free argument tokenizer ([`args`]), the flag table every
//! subcommand's flags are declared and checked in, and the experiment
//! commands ([`commands`]) the binary dispatches to. Split out as a
//! library so the parsing and output formatting are unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod csv;
mod flags;

/// Compiles and runs every Rust sample in `docs/OBSERVABILITY.md` as a
/// doctest, so the inspection workflow documentation can never drift
/// from the APIs it demonstrates.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/OBSERVABILITY.md")]
mod observability_docs {}

/// Compiles and runs every Rust sample in `docs/FAILURE_MODEL.md` as a
/// doctest, so the failure-model handbook can never drift from the
/// fault-injection and recovery APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/FAILURE_MODEL.md")]
mod failure_model_docs {}

/// Compiles and runs every Rust sample in `docs/SCHEDULING.md` as a
/// doctest, so the scheduling and power-governor handbook can never
/// drift from the `microfaas-sched` APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/SCHEDULING.md")]
mod scheduling_docs {}

/// Compiles and runs every Rust sample in `docs/TRACING.md` as a
/// doctest, so the span-tracing and critical-path handbook can never
/// drift from the `microfaas_sim::span` / `chrome` APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/TRACING.md")]
mod tracing_docs {}

/// Compiles and runs every Rust sample in `docs/PERFORMANCE.md` as a
/// doctest, so the parallel-engine handbook can never drift from the
/// `microfaas_sim::exec` APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/PERFORMANCE.md")]
mod performance_docs {}

/// Compiles and runs every Rust sample in `docs/SCALING.md` as a
/// doctest, so the million-event scaling handbook can never drift from
/// the timing-wheel, job-table, and streaming-run APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/SCALING.md")]
mod scaling_docs {}

/// Compiles and runs every Rust sample in `docs/WORKLOADS.md` as a
/// doctest, so the traffic-shape handbook can never drift from the
/// `microfaas::arrivals` / `scenario_sweep_cached_jobs` APIs it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/WORKLOADS.md")]
mod workloads_docs {}

/// Compiles and runs every Rust sample in `docs/CACHING.md` as a
/// doctest, so the result-cache handbook can never drift from the
/// `microfaas::cache` APIs and engine integrations it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/CACHING.md")]
mod caching_docs {}

/// Compiles and runs every Rust sample in `docs/ENERGY.md` as a
/// doctest, so the energy-attribution handbook can never drift from
/// the `microfaas_energy::attribution` / budget-governor APIs it
/// documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/ENERGY.md")]
mod energy_docs {}

/// Compiles and runs every Rust sample in `docs/MONITORING.md` as a
/// doctest, so the time-resolved telemetry handbook can never drift
/// from the `microfaas_sim::telemetry` / `microfaas::monitor` APIs it
/// documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/MONITORING.md")]
mod monitoring_docs {}

/// Compiles and runs every Rust sample in `docs/README.md` (the
/// handbook index) as a doctest, keeping the index under the same
/// drift guard as the handbooks it points at.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/README.md")]
mod handbook_index_docs {}
