//! Ablation benches for the design choices the paper discusses
//! qualitatively (§V/§VI): upgrading the SBC NIC to Gigabit, adding a
//! cryptographic accelerator, skipping the between-jobs reboot, and the
//! job-assignment policy.

use microfaas::config::WorkloadMix;
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas_bench::banner;
use microfaas_sched::PlacementKind;
use microfaas_workloads::FunctionId;

fn main() {
    banner(
        "Design-choice ablations",
        "paper §V discussion and §VI future work",
    );
    let seed = 2022;

    // 1. Gigabit NIC upgrade: the paper predicts it "would likely reduce
    //    the overhead of functions like COSGet".
    let cos_mix = WorkloadMix::new(vec![FunctionId::CosGet, FunctionId::CosPut], 100);
    let stock = run_microfaas(&MicroFaasConfig::paper_prototype(cos_mix.clone(), seed));
    let mut gige = MicroFaasConfig::paper_prototype(cos_mix, seed);
    gige.worker_nic_bits_per_sec = 1_000_000_000;
    let upgraded = run_microfaas(&gige);
    println!("\n[1] SBC NIC: Fast Ethernet -> Gigabit (COSGet/COSPut mix)");
    for (label, run) in [("100 Mb/s", &stock), ("1 Gb/s", &upgraded)] {
        let per_fn = run.per_function();
        println!(
            "  {label:>9}: COSGet overhead {:>6.0} ms, COSPut overhead {:>6.0} ms, {:>6.1} f/min",
            per_fn[&FunctionId::CosGet].overhead_ms.mean(),
            per_fn[&FunctionId::CosPut].overhead_ms.mean(),
            run.functions_per_minute()
        );
    }

    // 2. Crypto accelerator: "adding a cryptographic accelerator might
    //    significantly reduce the runtime of CascSHA".
    let crypto_mix = WorkloadMix::new(
        vec![FunctionId::CascSha, FunctionId::CascMd5, FunctionId::Aes128],
        60,
    );
    let no_accel = run_microfaas(&MicroFaasConfig::paper_prototype(crypto_mix.clone(), seed));
    let mut accel_config = MicroFaasConfig::paper_prototype(crypto_mix, seed);
    accel_config.crypto_exec_scale = 0.35;
    let accel = run_microfaas(&accel_config);
    println!("\n[2] Cryptographic accelerator (0.35x crypto exec time)");
    println!(
        "  stock:       {:>6.1} f/min, {:>5.2} J/func",
        no_accel.functions_per_minute(),
        no_accel.joules_per_function().unwrap_or(f64::NAN)
    );
    println!(
        "  accelerated: {:>6.1} f/min, {:>5.2} J/func",
        accel.functions_per_minute(),
        accel.joules_per_function().unwrap_or(f64::NAN)
    );

    // 3. Reboot-between-jobs: the isolation mechanism's throughput cost.
    let full_mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 40);
    let with_reboot = run_microfaas(&MicroFaasConfig::paper_prototype(full_mix.clone(), seed));
    let mut no_reboot_config = MicroFaasConfig::paper_prototype(full_mix.clone(), seed);
    no_reboot_config.reboot_between_jobs = false;
    let without_reboot = run_microfaas(&no_reboot_config);
    println!("\n[3] Reboot between jobs (the clean-state isolation guarantee)");
    println!(
        "  with reboot:    {:>6.1} f/min, {:>5.2} J/func",
        with_reboot.functions_per_minute(),
        with_reboot.joules_per_function().unwrap_or(f64::NAN)
    );
    println!(
        "  without reboot: {:>6.1} f/min, {:>5.2} J/func  (isolation lost)",
        without_reboot.functions_per_minute(),
        without_reboot.joules_per_function().unwrap_or(f64::NAN)
    );
    println!(
        "  -> the isolation guarantee costs {:.0}% throughput",
        (1.0 - with_reboot.functions_per_minute() / without_reboot.functions_per_minute()) * 100.0
    );

    // 4. Assignment policy: work-conserving shared queue vs the paper's
    //    static random per-worker queues.
    let balanced = run_microfaas(&MicroFaasConfig::paper_prototype(full_mix.clone(), seed));
    let mut random_config = MicroFaasConfig::paper_prototype(full_mix, seed);
    random_config.assignment = PlacementKind::RandomStatic;
    let random = run_microfaas(&random_config);
    println!("\n[4] Job assignment policy");
    println!(
        "  work-conserving: {:>6.1} f/min",
        balanced.functions_per_minute()
    );
    println!(
        "  random static:   {:>6.1} f/min  (longest queue stretches the makespan)",
        random.functions_per_minute()
    );

    assert!(without_reboot.functions_per_minute() > with_reboot.functions_per_minute());
    assert!(balanced.functions_per_minute() >= random.functions_per_minute());
    println!("\nAblations complete.");
}
