//! Backward-compatibility pin for the scheduling subsystem.
//!
//! The golden table below hashes every observable surface of a run:
//! aggregate results (as exact f64 bit patterns), the full JSON trace,
//! and the Prometheus exposition. The paper-default policies —
//! `WorkConserving` / `RandomStatic` placement under the
//! `RebootPerJob` governor — must reproduce all of them bit for bit;
//! the subsystem is required to be invisible until a non-default
//! policy is selected.
//!
//! The aggregate columns date from the commit *before*
//! `microfaas-sched` existed and have never moved. The trace and
//! exposition hashes were re-captured when span tracing landed: the
//! `wake_requested` / `response_sent` causal anchors and the `# HELP`
//! exposition lines change the bytes without touching any simulated
//! decision — the unchanged makespan/joules/records columns prove it.
//!
//! The closed-loop grid below pins the rest of the closed-loop surface
//! the same way: every placement, every governor, and one row per knob
//! (reboots, gating, timeouts, the result cache, crashes, probabilistic
//! faults, shedding, fleet size) on each node class of the one
//! closed-loop engine.

use std::sync::Arc;

use microfaas::cache::CacheConfig;
use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional, run_conventional_with, ConventionalConfig};
use microfaas::micro::{run_microfaas, run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{run_open_loop_with, ArrivalProcess, OpenLoopConfig};
use microfaas::registry::{FunctionRegistry, FunctionSpec};
use microfaas::report::ClusterRun;
use microfaas_sched::{GovernorKind, PlacementKind};
use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use microfaas_sim::trace::{Observer, TraceBuffer};
use microfaas_sim::{MetricsRegistry, SimDuration, SimTime};
use microfaas_workloads::FunctionId;
use proptest::prelude::*;

/// FNV-1a 64-bit, the same hash the capture harness used.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(makespan_bits, joules_bits, records, trace_fnv, expo_fnv)` for a
/// closed-loop run.
type ClosedFingerprint = (u64, u64, usize, u64, u64);

fn micro_fingerprint(config: &MicroFaasConfig) -> ClosedFingerprint {
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_microfaas_with(config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.makespan.as_secs_f64().to_bits(),
        run.energy.total_joules.to_bits(),
        run.records.len(),
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

fn conv_fingerprint(config: &ConventionalConfig) -> ClosedFingerprint {
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_conventional_with(config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.makespan.as_secs_f64().to_bits(),
        run.energy.total_joules.to_bits(),
        run.records.len(),
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

/// The quick-mix default of each class under `assignment`.
fn micro_default(assignment: PlacementKind, seed: u64) -> MicroFaasConfig {
    let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
    let mut config = MicroFaasConfig::paper_prototype(quick, seed);
    config.assignment = assignment;
    config
}

fn conv_default(assignment: PlacementKind, seed: u64) -> ConventionalConfig {
    let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
    let mut config = ConventionalConfig::paper_baseline(quick, seed);
    config.assignment = assignment;
    config
}

/// The seed every closed-loop grid row runs at, on the quick mix.
const GRID_SEED: u64 = 11;

/// Scheduled crashes `(worker, at seconds)` plus boot-failure, hang and
/// net-loss probabilities, on the standard recovery policies.
fn faults(crashes: &[(usize, u64)], [boot, hang, loss]: [f64; 3]) -> Arc<FaultPlan> {
    let mut faults: Vec<FaultSpec> = crashes
        .iter()
        .map(|&(worker, at_s)| FaultSpec {
            kind: FaultKind::Crash,
            worker: Some(worker),
            trigger: FaultTrigger::At(SimTime::from_secs(at_s)),
        })
        .collect();
    for (kind, p) in [
        (FaultKind::BootFailure, boot),
        (FaultKind::Hang, hang),
        (FaultKind::NetLoss, loss),
    ] {
        if p > 0.0 {
            faults.push(FaultSpec {
                kind,
                worker: None,
                trigger: FaultTrigger::Probability(p),
            });
        }
    }
    Arc::new(FaultPlan { seed: 5, faults })
}

const TWO_CRASHES: [(usize, u64); 2] = [(1, 60), (4, 150)];
const SIX_CRASHES: [(usize, u64); 6] = [(0, 100), (1, 100), (2, 100), (3, 100), (4, 100), (5, 100)];
const NO_CHANCE: [f64; 3] = [0.0, 0.0, 0.0];
const SOME_CHANCE: [f64; 3] = [0.05, 0.02, 0.05];
const DEAD_FLEET: [f64; 3] = [1.0, 0.0, 0.0];

/// The paper suite with MatMul redeployed under a 1.2 s kill deadline:
/// every MatMul dies on either class, nothing else is limited.
fn matmul_timeout_registry() -> FunctionRegistry {
    let mut registry = FunctionRegistry::paper_suite();
    let name = FunctionId::MatMul.name();
    let spec = registry.remove(name).expect("MatMul is deployed");
    registry
        .deploy(
            name,
            FunctionSpec {
                timeout: Some(SimDuration::from_millis(1_200)),
                ..spec
            },
        )
        .expect("a removed name redeploys");
    registry
}

fn lru_with_ttl() -> CacheConfig {
    CacheConfig::parse("lru:64,ttl=300").expect("valid spec")
}

fn micro_row(name: &str, turn: impl FnOnce(&mut MicroFaasConfig)) -> (String, MicroFaasConfig) {
    let mut config = micro_default(PlacementKind::WorkConserving, GRID_SEED);
    turn(&mut config);
    (name.to_string(), config)
}

fn conv_row(
    name: &str,
    turn: impl FnOnce(&mut ConventionalConfig),
) -> (String, ConventionalConfig) {
    let mut config = conv_default(PlacementKind::WorkConserving, GRID_SEED);
    turn(&mut config);
    (name.to_string(), config)
}

/// The SBC grid: every placement, every governor, then one row per knob
/// turned away from the paper prototype.
fn micro_grid() -> Vec<(String, MicroFaasConfig)> {
    let mut rows: Vec<_> = PlacementKind::ALL
        .into_iter()
        .map(|kind| micro_row(kind.label(), |c| c.assignment = kind))
        .collect();
    rows.extend(
        GovernorKind::ALL
            .into_iter()
            .map(|governor| micro_row(governor.label(), |c| c.governor = governor)),
    );
    rows.extend([
        micro_row("no-reboot", |c| c.reboot_between_jobs = false),
        micro_row("no-gating", |c| c.power_gating = false),
        micro_row("crypto-half-gige", |c| {
            c.crypto_exec_scale = 0.5;
            c.worker_nic_bits_per_sec = 1_000_000_000;
        }),
        micro_row("30-workers-sbc-services", |c| {
            c.workers = 30;
            c.service_nic_bits_per_sec = 100_000_000;
        }),
        micro_row("platform-timeout", |c| {
            c.timeouts = FunctionRegistry::paper_suite()
                .timeouts(Some(SimDuration::from_secs(2)))
                .into();
        }),
        micro_row("registry-timeout", |c| {
            c.timeouts = matmul_timeout_registry().timeouts(None).into()
        }),
        micro_row("cache", |c| c.cache = lru_with_ttl()),
        micro_row("two-crashes", |c| {
            c.faults = faults(&TWO_CRASHES, NO_CHANCE)
        }),
        micro_row("random-faults", |c| c.faults = faults(&[], SOME_CHANCE)),
        micro_row("dead-fleet", |c| c.faults = faults(&[], DEAD_FLEET)),
        micro_row("six-crashes", |c| {
            c.faults = faults(&SIX_CRASHES, NO_CHANCE)
        }),
        micro_row("everything-on", |c| {
            c.assignment = PlacementKind::LeastLoaded;
            c.governor = GovernorKind::ALL[1];
            c.reboot_between_jobs = false;
            c.power_gating = false;
            c.crypto_exec_scale = 0.5;
            c.worker_nic_bits_per_sec = 1_000_000_000;
            c.service_nic_bits_per_sec = 100_000_000;
            c.timeouts = matmul_timeout_registry()
                .timeouts(Some(SimDuration::from_secs(2)))
                .into();
            c.cache = lru_with_ttl();
            c.faults = faults(&TWO_CRASHES, SOME_CHANCE);
        }),
    ]);
    rows
}

/// The VM grid: the SBC grid's rows wherever the knob exists on a rack
/// server, plus 1 and 20 VMs. Only the 20-VM row oversubscribes the
/// host's cores, so it alone runs at a CPU-share slowdown above 1.
fn conv_grid() -> Vec<(String, ConventionalConfig)> {
    let mut rows: Vec<_> = PlacementKind::ALL
        .into_iter()
        .map(|kind| conv_row(kind.label(), |c| c.assignment = kind))
        .collect();
    rows.extend(
        GovernorKind::ALL
            .into_iter()
            .map(|governor| conv_row(governor.label(), |c| c.governor = governor)),
    );
    rows.extend([
        conv_row("no-reboot", |c| c.reboot_between_jobs = false),
        conv_row("platform-timeout", |c| {
            c.timeouts = FunctionRegistry::paper_suite()
                .timeouts(Some(SimDuration::from_secs(2)))
                .into();
        }),
        conv_row("registry-timeout", |c| {
            c.timeouts = matmul_timeout_registry().timeouts(None).into()
        }),
        conv_row("cache", |c| c.cache = lru_with_ttl()),
        conv_row("two-crashes", |c| {
            c.faults = faults(&TWO_CRASHES, NO_CHANCE)
        }),
        conv_row("random-faults", |c| c.faults = faults(&[], SOME_CHANCE)),
        conv_row("dead-fleet", |c| c.faults = faults(&[], DEAD_FLEET)),
        conv_row("six-crashes", |c| {
            c.faults = faults(&SIX_CRASHES, NO_CHANCE)
        }),
        conv_row("everything-on", |c| {
            c.assignment = PlacementKind::LeastLoaded;
            c.governor = GovernorKind::ALL[1];
            c.reboot_between_jobs = false;
            c.timeouts = matmul_timeout_registry()
                .timeouts(Some(SimDuration::from_secs(2)))
                .into();
            c.cache = lru_with_ttl();
            c.faults = faults(&TWO_CRASHES, SOME_CHANCE);
        }),
        conv_row("1-vm", |c| c.vms = 1),
        conv_row("20-vms", |c| c.vms = 20),
    ]);
    rows
}

/// Grid goldens, in row order. Recorded on the last commit that still
/// ran SBCs and VMs through two separate engines, so they pin the one
/// engine to both of its predecessors.
#[rustfmt::skip]
const MICRO_GRID: [(&str, ClosedFingerprint); 24] = [
    ("work-conserving", (0x4070_156c_e896_56ef, 0x40b3_85e7_d5b1_4cf2, 850, 0x5482_b55e_44b3_fd11, 0x4429_7f94_4426_80ad)),
    ("random-static", (0x4072_6401_ede1_198b, 0x40b3_7669_ae0a_1409, 850, 0xd640_a489_4778_76a3, 0xeda6_4503_97c0_f4c1)),
    ("least-loaded", (0x4071_d8a7_5cd0_bb6f, 0x40b3_82ec_514d_24aa, 850, 0x03e7_f163_2b35_fc85, 0x40f7_5d41_1396_97b2)),
    ("join-shortest-queue", (0x4071_0d45_c465_1f3f, 0x40b3_791d_13d8_a4fb, 850, 0x71b7_54fd_80f2_6cc1, 0xfdc7_147e_fe5c_2274)),
    ("warm-first", (0x40a3_dc26_872b_020c, 0x40b3_765e_96e5_8a75, 850, 0x77ce_d4ad_b423_962b, 0x46fe_c552_1012_ef17)),
    ("power-aware", (0x4070_d7cb_6955_2e30, 0x40b3_7ae8_00d6_bf9d, 850, 0x7687_b889_d5da_cdb5, 0xb304_612a_1acb_364f)),
    ("cache-affine", (0x4071_0d45_c465_1f3f, 0x40b3_791d_13d8_a4fb, 850, 0x014e_adfd_f2c0_9897, 0xfdc7_147e_fe5c_2274)),
    ("reboot-per-job", (0x4070_156c_e896_56ef, 0x40b3_85e7_d5b1_4cf2, 850, 0x5482_b55e_44b3_fd11, 0x4429_7f94_4426_80ad)),
    ("keep-alive", (0x4060_3928_c79f_6662, 0x40a3_9c86_a275_0a6e, 850, 0xf1fd_32ee_f5c3_6aaa, 0x1a2a_f227_050b_6136)),
    ("always-on", (0x4060_3928_c79f_6662, 0x40a3_88d9_f66f_8879, 850, 0x9360_c9c6_816b_f0f2, 0x6b35_5a53_0fbd_1e0e)),
    ("warm-pool", (0x4060_3928_c79f_6662, 0x40a3_82ed_08db_70d4, 850, 0x1599_fc18_6535_0eac, 0x6061_1afa_d696_8c68)),
    ("energy-budget", (0x4060_3928_c79f_6662, 0x40a3_9c86_a275_0a6e, 850, 0xf1fd_32ee_f5c3_6aaa, 0x1a2a_f227_050b_6136)),
    ("no-reboot", (0x4060_3928_c79f_6662, 0x40a3_82ed_08db_70d4, 850, 0x1599_fc18_6535_0eac, 0xd7a5_a2bd_87b5_5c61)),
    ("no-gating", (0x4070_156c_e896_56ef, 0x40b3_88d7_8066_3945, 850, 0x4e9b_d07d_a39a_7449, 0x575c_c727_d7d6_525d)),
    ("crypto-half-gige", (0x406c_a21e_e675_147f, 0x40b1_7894_fe19_f6d3, 850, 0xa63f_b3f1_f354_5b30, 0xc8ff_4718_41c4_1a93)),
    ("30-workers-sbc-services", (0x4056_05ef_2c73_2592, 0x40b3_ad68_f629_e85a, 850, 0x85fc_066d_dfa7_42af, 0xe692_efa0_7a91_3953)),
    ("platform-timeout", (0x406c_114f_7446_f9ba, 0x40b1_3354_dadc_8503, 695, 0xedab_36e9_36f5_95dd, 0xe6ca_3172_1696_e18b)),
    ("registry-timeout", (0x406d_e783_70cd_c875, 0x40b2_2567_bd42_1556, 800, 0xcea9_87b3_9c42_da9e, 0x0734_0550_db3f_1cee)),
    ("cache", (0x4027_dbb7_5211_44cc, 0x406a_7009_5b48_7b18, 850, 0xfb00_3a58_4cf3_10e6, 0x1b62_6ef7_a79d_8a1e)),
    ("two-crashes", (0x4070_1ded_a87a_072d, 0x40b3_8ffc_d392_e4a8, 850, 0x8725_ec75_158f_cda0, 0x51bb_bb9f_9ee7_ff96)),
    ("random-faults", (0x4076_30e0_578e_5c4f, 0x40b9_2194_9900_16b2, 850, 0x9332_dd18_5bff_8863, 0x858b_69e1_ab56_7186)),
    ("dead-fleet", (0x0000_0000_0000_0000, 0x405d_9893_74bc_6a80, 0, 0x8c24_b1cf_fe34_9d61, 0x21a6_2a21_a82b_1a61)),
    ("six-crashes", (0x4063_c69e_236c_15d3, 0x40a8_398b_928d_60d3, 588, 0x9146_9b3b_822c_6512, 0x5972_c4d0_6d46_77db)),
    ("everything-on", (0x403c_df86_0999_dcb5, 0x407b_9c3d_c2a3_7e1e, 791, 0x9325_57e1_5b3d_57e4, 0x4dfd_92fc_5aff_6e2e)),
];

#[rustfmt::skip]
const CONV_GRID: [(&str, ClosedFingerprint); 23] = [
    ("work-conserving", (0x406e_7451_5ce9_e5e2, 0x40da_e1d9_a86c_9b33, 850, 0x8b65_5b79_2461_129a, 0x37a5_afc3_8d38_544b)),
    ("random-static", (0x406f_48f2_1709_3101, 0x40db_46ef_18f2_3f5a, 850, 0xde69_d87c_b420_fa8c, 0x31ad_d38a_f734_df95)),
    ("least-loaded", (0x406f_4447_991b_c558, 0x40db_45c5_a08f_5729, 850, 0x7fa1_b562_ff54_6174, 0xe855_8b8f_cb24_2af6)),
    ("join-shortest-queue", (0x406f_56ea_033e_78e2, 0x40db_4e2e_d27b_6270, 850, 0x7b75_6007_5d98_946d, 0x4d91_756d_6535_49a4)),
    ("warm-first", (0x4096_cd7c_0df5_8c09, 0x40f8_876c_86d0_6905, 850, 0x47b0_0d79_07ed_a06a, 0x3aff_9845_3c9d_baf7)),
    ("power-aware", (0x406f_447e_9531_550d, 0x40db_438e_358c_a9c9, 850, 0x3dcc_5212_a196_55fc, 0x88f1_ddbf_cd0c_b0ee)),
    ("cache-affine", (0x406f_56ea_033e_78e2, 0x40db_4e2e_d27b_6270, 850, 0x3a45_33c3_3c89_0e75, 0x4d91_756d_6535_49a4)),
    ("reboot-per-job", (0x406e_7451_5ce9_e5e2, 0x40da_e1d9_a86c_9b33, 850, 0x8b65_5b79_2461_129a, 0x37a5_afc3_8d38_544b)),
    ("keep-alive", (0x405b_0ac1_615e_bfa9, 0x40c7_c076_fe06_2ac0, 850, 0x0f62_2cb9_083c_d0e7, 0xaa35_1031_73bb_435b)),
    ("always-on", (0x405b_0ac1_615e_bfa9, 0x40c7_c076_fe06_2ac0, 850, 0x0f62_2cb9_083c_d0e7, 0xaa35_1031_73bb_435b)),
    ("warm-pool", (0x405b_0ac1_615e_bfa9, 0x40c7_c076_fe06_2ac0, 850, 0x0f62_2cb9_083c_d0e7, 0xaa35_1031_73bb_435b)),
    ("energy-budget", (0x405b_0ac1_615e_bfa9, 0x40c7_c076_fe06_2ac0, 850, 0x0f62_2cb9_083c_d0e7, 0xaa35_1031_73bb_435b)),
    ("no-reboot", (0x405b_0ac1_615e_bfa9, 0x40c7_c076_fe06_2ac0, 850, 0x0f62_2cb9_083c_d0e7, 0xf8c2_e95b_9f56_7322)),
    ("platform-timeout", (0x406e_788f_55de_58e6, 0x40da_e412_4077_bf55, 846, 0xefa8_008d_27ce_64d1, 0xe360_c870_185e_4f8a)),
    ("registry-timeout", (0x406d_bb13_9431_7acc, 0x40da_3e84_1a1f_65f7, 800, 0x6b0c_2499_16d7_81f5, 0x9909_745e_f065_0c29)),
    ("cache", (0x401a_b5b6_805a_2d73, 0x4089_df06_e928_4d26, 850, 0x269c_4b17_2cf0_026c, 0x1394_47e5_9eed_4ef9)),
    ("two-crashes", (0x406e_8687_ad08_0b67, 0x40da_ef96_5aee_6324, 850, 0x764c_469b_eae0_93d7, 0x3224_7855_90a2_fd3e)),
    ("random-faults", (0x4074_defd_b4cc_2507, 0x40e2_683c_fda4_dbea, 850, 0xe6c2_6f8d_7c87_2ade, 0xe751_c606_6b85_9a3e)),
    ("dead-fleet", (0x3ffd_ecf9_5d4e_8fb0, 0x4082_d29e_e59e_54eb, 6, 0xb05e_4782_b42e_39f7, 0xbde4_bf82_eff1_39c7)),
    ("six-crashes", (0x4064_4c82_2bbe_caac, 0x40d1_ef4e_a055_7583, 598, 0x5094_f133_866d_7ea4, 0x60f5_90ac_0596_1a7f)),
    ("everything-on", (0x403f_9d99_88d2_a1f9, 0x40c4_1b77_b03a_c5cf, 800, 0xe9be_6861_9985_dbe9, 0x406e_8bf5_35a5_417b)),
    ("1-vm", (0x4096_cd7c_0df5_8c09, 0x40f8_876c_86d0_6905, 850, 0xc7c5_49f7_65b4_07e4, 0x70fd_4de8_38ff_08ec)),
    ("20-vms", (0x4056_8ab8_4556_4b66, 0x40ca_83c2_a0c0_d547, 850, 0xb941_e55b_806b_47c1, 0x0d1f_b982_d120_e50c)),
];

#[test]
fn micro_grid_is_bit_identical_to_the_separate_engine() {
    let rows = micro_grid();
    assert_eq!(rows.len(), MICRO_GRID.len());
    let mut diverged = Vec::new();
    for ((name, config), (golden_name, golden)) in rows.iter().zip(MICRO_GRID) {
        assert_eq!(name, golden_name, "grid rows are out of order");
        if micro_fingerprint(config) != golden {
            diverged.push(golden_name);
        }
    }
    assert!(diverged.is_empty(), "SBC grid rows diverged: {diverged:?}");
}

#[test]
fn conv_grid_is_bit_identical_to_the_separate_engine() {
    let rows = conv_grid();
    assert_eq!(rows.len(), CONV_GRID.len());
    let mut diverged = Vec::new();
    for ((name, config), (golden_name, golden)) in rows.iter().zip(CONV_GRID) {
        assert_eq!(name, golden_name, "grid rows are out of order");
        if conv_fingerprint(config) != golden {
            diverged.push(golden_name);
        }
    }
    assert!(diverged.is_empty(), "VM grid rows diverged: {diverged:?}");
}

/// FNV-1a over every completion record in order: job id, function
/// index, worker, then the start, exec and overhead microseconds.
fn records_fnv(run: &ClusterRun) -> u64 {
    let mut bytes = Vec::new();
    for record in &run.records {
        bytes.extend(record.job.id.to_le_bytes());
        bytes.push(record.job.function.index());
        bytes.extend((record.worker as u64).to_le_bytes());
        for micros in [
            record.started.as_micros(),
            record.exec.as_micros(),
            record.overhead.as_micros(),
        ] {
            bytes.extend(micros.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Record goldens for a few grid rows of each class, fault-free and
/// under the crash plans: the order and content of every completion,
/// which the grids pin only by count.
#[rustfmt::skip]
const RECORD_GOLDENS: [(&str, &str, u64); 10] = [
    ("sbc", "work-conserving", 0x5211_3fe0_1bb9_1ac6),
    ("sbc", "random-static", 0x0baa_5e5f_8baa_019f),
    ("sbc", "keep-alive", 0xf634_6275_744a_2e68),
    ("sbc", "two-crashes", 0x766a_0e2b_60d6_264a),
    ("sbc", "six-crashes", 0xaf46_44ba_62aa_b4b8),
    ("vm", "work-conserving", 0x8b4c_db87_e259_d689),
    ("vm", "random-static", 0xf40b_de72_0f24_9d5b),
    ("vm", "keep-alive", 0xe7f9_d11a_0851_471b),
    ("vm", "two-crashes", 0x3525_cb61_0b7d_7416),
    ("vm", "six-crashes", 0x805f_d226_6112_f6ec),
];

#[test]
fn closed_loop_records_are_unchanged() {
    let (micro, conv) = (micro_grid(), conv_grid());
    let mut got = Vec::new();
    for (class, row, _) in RECORD_GOLDENS {
        let run = match class {
            "sbc" => run_microfaas(&micro.iter().find(|(name, _)| name == row).unwrap().1),
            _ => run_conventional(&conv.iter().find(|(name, _)| name == row).unwrap().1),
        };
        got.push((class, row, records_fnv(&run)));
    }
    assert_eq!(got, RECORD_GOLDENS);
}

/// `(mean_latency_bits, jpf_bits, completed, power_cycles, trace_fnv,
/// expo_fnv)` for an open-loop run.
type OpenFingerprint = (u64, u64, u64, u64, u64, u64);

fn open_fingerprint(scheduler: PlacementKind, seed: u64) -> OpenFingerprint {
    let mut config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(600), seed);
    config.scheduler = scheduler;
    config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_open_loop_with(&config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.mean_latency_s.to_bits(),
        run.joules_per_function.to_bits(),
        run.completed,
        run.power_cycles,
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

fn assignment(label: &str) -> PlacementKind {
    match label {
        "wc" => PlacementKind::WorkConserving,
        "rs" => PlacementKind::RandomStatic,
        other => panic!("unknown assignment label {other}"),
    }
}

#[test]
fn micro_defaults_are_bit_identical_to_pre_subsystem_runs() {
    // Captured by tools/capture_goldens (since deleted) on the last
    // commit before crates/sched existed.
    let goldens: [(&str, u64, u64, u64, usize, u64, u64); 6] = [
        (
            "wc",
            3,
            0x4070_1985_e5f3_0e80,
            0x40b3_8beb_b9c3_85af,
            850,
            0xd3dd_b71b_4638_1f19,
            0xebc6_8c6c_68e1_23e3,
        ),
        (
            "rs",
            3,
            0x4072_c8a4_ba94_bbe4,
            0x40b3_7999_7619_0bf3,
            850,
            0xc54c_3359_64c1_5f17,
            0x67e8_f80a_bd5f_26cd,
        ),
        (
            "wc",
            7,
            0x4070_14c8_7b99_d452,
            0x40b3_8816_596c_82e9,
            850,
            0xa81c_5bed_a989_b2c1,
            0x7784_956d_cb91_dd4b,
        ),
        (
            "rs",
            7,
            0x4072_7ec9_b1fa_b96f,
            0x40b3_7a33_5ddd_d6be,
            850,
            0xc551_2df4_8be4_e67c,
            0xe59f_28c3_6dc0_cc84,
        ),
        (
            "wc",
            11,
            0x4070_156c_e896_56ef,
            0x40b3_85e7_d5b1_4cf2,
            850,
            0x5482_b55e_44b3_fd11,
            0x4429_7f94_4426_80ad,
        ),
        (
            "rs",
            11,
            0x4072_6401_ede1_198b,
            0x40b3_7669_ae0a_1409,
            850,
            0xd640_a489_4778_76a3,
            0xeda6_4503_97c0_f4c1,
        ),
    ];
    for (label, seed, makespan, joules, records, trace_fnv, expo_fnv) in goldens {
        let got = micro_fingerprint(&micro_default(assignment(label), seed));
        assert_eq!(
            got,
            (makespan, joules, records, trace_fnv, expo_fnv),
            "micro {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

#[test]
fn conventional_defaults_are_bit_identical_to_pre_subsystem_runs() {
    let goldens: [(&str, u64, u64, u64, usize, u64, u64); 6] = [
        (
            "wc",
            3,
            0x406e_6e3e_4473_cd57,
            0x40da_dedd_71c1_0d77,
            850,
            0x9097_599d_8667_24bb,
            0x87f3_f6a8_cd08_3b97,
        ),
        (
            "rs",
            3,
            0x4070_4b0f_7db6_e504,
            0x40db_df63_71c9_70fa,
            850,
            0x0afc_a468_3908_9ba2,
            0xea4e_1567_ca6c_6236,
        ),
        (
            "wc",
            7,
            0x406e_6f53_f9e7_b80b,
            0x40da_e05b_3743_632c,
            850,
            0x1a75_c3a0_f6ec_0d96,
            0xfd6c_7722_35e2_c7a6,
        ),
        (
            "rs",
            7,
            0x4070_400b_8e08_6bdf,
            0x40db_da1b_e1f1_f7f6,
            850,
            0x3d93_dc1b_ff2f_11b3,
            0x057f_af77_f2c2_c60b,
        ),
        (
            "wc",
            11,
            0x406e_7451_5ce9_e5e2,
            0x40da_e1d9_a86c_9b33,
            850,
            0x8b65_5b79_2461_129a,
            0x37a5_afc3_8d38_544b,
        ),
        (
            "rs",
            11,
            0x406f_48f2_1709_3101,
            0x40db_46ef_18f2_3f5a,
            850,
            0xde69_d87c_b420_fa8c,
            0x31ad_d38a_f734_df95,
        ),
    ];
    for (label, seed, makespan, joules, records, trace_fnv, expo_fnv) in goldens {
        let got = conv_fingerprint(&conv_default(assignment(label), seed));
        assert_eq!(
            got,
            (makespan, joules, records, trace_fnv, expo_fnv),
            "conventional {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

#[test]
fn open_loop_defaults_are_bit_identical_to_pre_subsystem_runs() {
    // Label, seed, then the OpenFingerprint fields flattened:
    // latency bits, jpf bits, completed, power cycles, trace FNV,
    // exposition FNV. "rq" is the historical RandomQueue spelling,
    // now RandomStatic.
    type OpenGolden = (&'static str, u64, u64, u64, u64, u64, u64, u64);
    let goldens: [OpenGolden; 6] = [
        (
            "rq",
            7,
            0x4013_c792_61ce_d88e,
            0x4016_f41d_4c1e_6ac9,
            1168,
            519,
            0x1aa3_d01d_2c84_fc12,
            0x1c1f_25c9_144d_1ab6,
        ),
        (
            "ll",
            7,
            0x4009_9dd5_67e9_eb02,
            0x4017_ad18_bc78_a57c,
            1170,
            1093,
            0x87a0_f978_9570_e46c,
            0xa63f_2858_accb_9844,
        ),
        (
            "pa",
            7,
            0x4013_d8ed_6830_9d62,
            0x4017_7d91_ebeb_f5f5,
            1215,
            192,
            0x1d60_7dc6_964c_dbd9,
            0x8f99_64fe_e7a9_f85b,
        ),
        (
            "rq",
            2022,
            0x4016_4764_5017_452c,
            0x4017_7be3_1baa_0386,
            1187,
            494,
            0x63d2_638f_8191_cae4,
            0x94bd_5b6a_74ee_7573,
        ),
        (
            "ll",
            2022,
            0x4008_aaea_81e3_b5ce,
            0x4017_1716_baa1_50e2,
            1192,
            1133,
            0x006b_c296_f129_289b,
            0x4ce4_6db0_8271_7886,
        ),
        (
            "pa",
            2022,
            0x4013_d2fd_cb97_4adc,
            0x4017_5e95_2096_e378,
            1151,
            175,
            0x4a12_3abd_43fe_8f74,
            0xf908_278b_9916_0b1c,
        ),
    ];
    for (label, seed, latency, jpf, completed, cycles, trace_fnv, expo_fnv) in goldens {
        let scheduler = match label {
            "rq" => PlacementKind::RandomStatic,
            "ll" => PlacementKind::LeastLoaded,
            "pa" => PlacementKind::PowerAware,
            other => panic!("unknown scheduler label {other}"),
        };
        let got = open_fingerprint(scheduler, seed);
        assert_eq!(
            got,
            (latency, jpf, completed, cycles, trace_fnv, expo_fnv),
            "open-loop {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed, not just the pinned ones: equal seeds give equal bits
    /// on every observable surface, for both default placements.
    #[test]
    fn micro_default_runs_are_deterministic(seed in 0u64..10_000) {
        for assignment in [PlacementKind::WorkConserving, PlacementKind::RandomStatic] {
            let config = micro_default(assignment, seed);
            let a = micro_fingerprint(&config);
            let b = micro_fingerprint(&config);
            prop_assert_eq!(a, b);
        }
    }

    /// The default governor leaves zero footprint: no scheduler metric
    /// families, no scheduler trace events, for any seed.
    #[test]
    fn default_policies_emit_no_scheduler_telemetry(seed in 0u64..10_000) {
        let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
        let config = MicroFaasConfig::paper_prototype(quick, seed);
        let mut trace = TraceBuffer::new(1 << 21);
        let mut metrics = MetricsRegistry::new();
        run_microfaas_with(&config, &mut Observer::full(&mut trace, &mut metrics));
        let expo = metrics.render_prometheus();
        prop_assert!(!expo.contains("sched_"), "default run leaked sched metrics");
        let lines = trace.to_json_lines();
        prop_assert!(!lines.contains("placement_decision"));
        prop_assert!(!lines.contains("governor_transition"));
    }

    /// Open loop: the historical schedulers under the default governor
    /// are deterministic for any seed.
    #[test]
    fn open_loop_default_runs_are_deterministic(seed in 0u64..10_000) {
        for scheduler in [
            PlacementKind::RandomStatic,
            PlacementKind::LeastLoaded,
            PlacementKind::PowerAware,
        ] {
            let a = open_fingerprint(scheduler, seed);
            let b = open_fingerprint(scheduler, seed);
            prop_assert_eq!(a, b);
        }
    }
}
