//! Golden grid for the `microfaas` binary: every accepted command line
//! below must keep printing the same bytes and writing the same files.
//!
//! Each row runs the binary once, serially, in a fresh directory that
//! holds only `examples/faults_crash.json` and a two-regime scenario
//! spec, with every path relative, so no absolute path reaches the
//! output. A row is pinned by one FNV-1a hash over its exit status,
//! stdout, stderr and the name and bytes of each file it wrote.
//!
//! Together the rows name every (subcommand, flag) pair, every
//! placement and governor label, and leave out each cheap flag at
//! least once so its default is pinned too. On a mismatch the test
//! prints the whole table with the hashes it saw.

use std::path::Path;
use std::process::Command;

use microfaas::cache::fnv1a;

/// The scenario spec the `scenarios --spec` rows read.
const SUITE: &str = r#"{"scenarios": [
  {"name": "spiky", "arrivals": "flash:0.2,60,60,2"},
  {"name": "skewed", "arrivals": "poisson:0.5", "popularity": "zipf:1.1",
   "tenants": [{"name": "paid", "weight": 1.0, "slo_latency_s": 5.0}]}
]}
"#;

/// `(command line, hash)`; the command line is split on spaces.
const ROWS: &[(&str, u64)] = &[
    ("boot", 0x34237aa66b0ad35b),
    ("boot --csv boot.csv", 0x97dcede660fcffd4),
    ("tco", 0x5782cdb99d2685da),
    ("tco --utilization 0.3 --online-rate 0.9", 0xafdf27149e850a31),
    ("workloads", 0x5333c2fcf081cccb),
    ("workloads --seed 3", 0xc9c57179cd9a3525),
    ("reliability", 0xa2fdf7dcfe974e05),
    ("reliability --seed 3", 0xd961f6d1853d3ad6),
    ("proportionality", 0xd21511189d445228),
    ("proportionality --workers 4 --csv p.csv", 0xbd65058a4f9b6c0a),
    ("compare --invocations 2", 0xd293d54b9329f046),
    ("compare --invocations 2 --seed 5 --jobs 2 --csv c.csv", 0x38c16e086e90c2df),
    ("compare --invocations 2 --seed 5 --faults examples/faults_crash.json", 0x1b91a1e6e1e17c97),
    ("compare --invocations 2 --seed 5 --metrics-out c.prom", 0x9ee839076b4b2a56),
    (
        "compare --invocations 2 --seed 5 --faults examples/faults_crash.json --metrics-out c.prom --jobs 1",
        0x8e5702305f824eb0,
    ),
    ("sweep --max-vms 3 --invocations 2", 0x7f5223ac9efb8992),
    ("sweep --max-vms 3 --invocations 2 --seed 7 --jobs 2 --csv s.csv", 0xb82b7ab603c0c049),
    ("sweep --max-vms 2", 0xc78f25d948d6d623),
    ("timeline --invocations 2", 0x43545ca07590ed13),
    ("timeline --invocations 3 --width 40 --seed 9", 0xec48b627e6b0f872),
    ("scale --invocations 2", 0xe8736038d51f5f05),
    ("scale --invocations 2 --seed 2 --jobs 2 --csv scale.csv", 0xb8427182251efcf4),
    ("trace --invocations 2", 0x99bf9c9880cdbd2b),
    (
        "trace --cluster conventional --invocations 2 --seed 9 --buffer 4096 --out t.jsonl --metrics-out t.prom --csv t.csv",
        0xc677c58d41bdf78e,
    ),
    ("trace --invocations 1 --seed 2022 --job 1", 0x406a0536dce233a2),
    ("trace --invocations 2 --seed 7 --type response_sent --out f.jsonl", 0xa29e5c85f519ffcf),
    ("trace --cluster micro --invocations 2 --seed 3 --job 0 --type job_completed", 0x9889c1693bbd0dd2),
    ("analyze --invocations 2", 0x842132a7a4e80123),
    (
        "analyze --invocations 2 --seed 7 --breakdown --job 0 --perfetto a.json --csv a.csv --jobs 2",
        0x35418307f0793096,
    ),
    ("analyze --invocations 2 --cluster conventional --job 3 --perfetto c.json", 0x48065247ff335921),
    ("faults --invocations 2", 0x0028a9f6167cf514),
    (
        "faults --plan examples/faults_crash.json --cluster conventional --invocations 2 --seed 7 --width 40 --out f.jsonl --metrics-out f.prom --csv f.csv",
        0x28bb2e4f2c47fb44,
    ),
    ("faults --cluster micro --invocations 2 --seed 7 --replicates 3 --jobs 2 --csv r.csv", 0x75395f4d923c8896),
    ("faults --cluster conventional --invocations 2 --replicates 2", 0xd5e027ce0345d4a5),
    ("faults --invocations 2 --replicates 1 --out one.jsonl", 0x1cd49294f5d8ce41),
    ("openloop --duration-secs 60 --workers 4", 0x2e5d52218246a347),
    ("openloop --duration-secs 60 --workers 4 --policy work-conserving --governor reboot-per-job", 0x75a805c1bb8bd035),
    ("openloop --duration-secs 60 --workers 4 --policy random-static --governor keep-alive", 0x260c7df705c3bfa1),
    ("openloop --duration-secs 60 --workers 4 --policy least-loaded --governor always-on", 0xf61dbd11e6ff08b3),
    ("openloop --duration-secs 60 --workers 4 --policy join-shortest-queue --governor warm-pool", 0xa5b0ae36c7fa1718),
    ("openloop --duration-secs 60 --workers 4 --policy warm-first --governor energy-budget", 0xe2c603f4c21272a8),
    ("openloop --duration-secs 60 --workers 4 --policy power-aware --governor keep-alive", 0xa336e5bed88450a9),
    ("openloop --duration-secs 60 --workers 4 --policy cache-affine --governor always-on --rate 2 --cache on", 0x3fdc276336aab04b),
    ("openloop --duration-secs 60 --workers 4 --policy random --seed 9", 0x8711777decc96645),
    ("openloop --duration-secs 60 --workers 4 --policy jsq --rate 0.5 --seed 9", 0xafe7567e87e7758a),
    ("openloop --streaming --jobs-per-tick 2 --duration-secs 60 --workers 4 --governor keep-alive --seed 5", 0xb17486d020d0418e),
    ("openloop --jobs-per-tick 3 --duration-secs 30 --workers 4", 0x1c0937f267c60764),
    ("openloop --arrivals mmpp:0.2,2,60,15 --popularity zipf:1.1 --duration-secs 60 --workers 4 --seed 3", 0x309230b745eb693d),
    ("openloop --rate 2 --duration-secs 60 --workers 4 --popularity hot-cold:2,0.8", 0x6c4af0acda66a1d8),
    (
        "openloop --rate 2 --duration-secs 60 --workers 4 --streaming --cache lru:256,ttl=120,inputs=4 --popularity hot-cold:2,0.8",
        0xe06af2ed464bc019,
    ),
    ("openloop --arrivals flash:0.5,20,10,4 --streaming --duration-secs 60 --workers 4", 0x1688c6f8fc287965),
    ("monitor --duration-secs 60 --workers 4", 0x2cb6c7d8fa5d0fb0),
    (
        "monitor --arrivals flash:0.2,60,30,20 --duration-secs 120 --workers 4 --governor keep-alive --tenants paid:1:2.5,free:4:30 --seed 2022 --csv m.csv --metrics-out m.prom --perfetto m.json --jobs 2 --slo-target 0.9 --window-secs 2 --max-windows 30 --policy least-loaded",
        0x005f4ddcada01ae0,
    ),
    ("monitor --rate 2 --duration-secs 60 --workers 4 --budget 0.5,burst=5,action=shed --cache on --seed 3", 0xd2bb17962aacaaf6),
    ("monitor --rate 2 --duration-secs 30 --workers 4 --window-secs 0.25 --policy jsq --governor warm-pool", 0x63b1786c8c253835),
    ("energy --duration-secs 60 --workers 4", 0x702efc610b792ba4),
    (
        "energy --rate 2 --duration-secs 60 --workers 4 --seed 7 --idle equal --breakdown --tenants paid:3,free:1 --csv e.csv --metrics-out e.prom --jobs 2",
        0xa0e2c66562b8a37f,
    ),
    ("energy --rate 2 --duration-secs 60 --workers 4 --seed 9 --budget 0.5,burst=5,action=shed --idle usage-weighted", 0xd77e1d0dd3e33e73),
    ("energy --rate 2 --duration-secs 60 --workers 4 --governor keep-alive --idle none", 0xd45c73399d137571),
    ("sched --duration-secs 60 --workers 4", 0x51972909e7ca4bf6),
    ("sched --rate 0.5 --duration-secs 60 --workers 4 --seed 7 --jobs 2 --csv sched.csv --cache lru:1024", 0x270e7943376936ed),
    ("scenarios --duration-secs 60 --workers 4", 0x77572684bc1bdb12),
    (
        "scenarios --spec examples/suite.json --duration-secs 120 --workers 4 --seed 7 --jobs 2 --csv sc.csv --cache lru:1024",
        0x86e38baac66b17a2,
    ),
];

/// Runs one row in a fresh `dir` and hashes what it left behind.
fn run_row(dir: &Path, line: &str) -> u64 {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("old row directory removed");
    }
    let examples = dir.join("examples");
    std::fs::create_dir_all(&examples).expect("row directory created");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/faults_crash.json"
        ),
        examples.join("faults_crash.json"),
    )
    .expect("fault plan copied");
    std::fs::write(examples.join("suite.json"), SUITE).expect("scenario spec written");

    let out = Command::new(env!("CARGO_BIN_EXE_microfaas"))
        .args(line.split(' '))
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let mut bytes = format!("status {:?}\n", out.status.code()).into_bytes();
    bytes.extend_from_slice(&out.stdout);
    bytes.extend_from_slice(b"\0stderr\0");
    bytes.extend_from_slice(&out.stderr);
    let mut written: Vec<_> = std::fs::read_dir(dir)
        .expect("row directory lists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_file())
        .collect();
    written.sort();
    for path in written {
        let name = path.file_name().expect("file name").to_string_lossy();
        bytes.extend_from_slice(format!("\0file {name}\0").as_bytes());
        bytes.extend_from_slice(&std::fs::read(&path).expect("written file reads"));
    }
    fnv1a(&bytes)
}

#[test]
fn every_golden_command_line_is_unchanged() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_goldens");
    let mut seen = Vec::new();
    let mut diverged = Vec::new();
    for (i, &(line, expected)) in ROWS.iter().enumerate() {
        let hash = run_row(&root.join(format!("row{i:02}")), line);
        if hash != expected {
            diverged.push(line);
        }
        seen.push(format!("    ({line:?}, {hash:#018x}),"));
    }
    assert!(
        diverged.is_empty(),
        "{} of {} rows diverged: {diverged:#?}\nhashes seen:\n{}",
        diverged.len(),
        ROWS.len(),
        seen.join("\n")
    );
}
