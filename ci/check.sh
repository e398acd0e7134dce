#!/usr/bin/env bash
# The full pre-merge gate. Everything here runs offline (the two
# external dev-dependencies are vendored shims — see README "Offline
# workflow").
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a command under a time bound, so a defect that loops forever
# fails the gate instead of hanging it. Each bound is about ten times
# the command's run in a full pass of this script on a 2-vCPU VM, with
# what it needs already built, and at least 30 s. The notice goes to
# stderr, so it shows even when stdout is captured.
bounded() {
    local seconds=$1 status=0
    shift
    timeout "$seconds" "$@" || status=$?
    [ "$status" -ne 124 ] || echo "timed out after ${seconds} s: $*" >&2
    return "$status"
}

# One run of the CLI, built by the workspace stage, under `bounded`.
cli() {
    local seconds=$1
    shift
    bounded "$seconds" cargo run --release -q -p microfaas-cli -- "$@"
}

# One `cargo bench` target, built first without a bound, then run under
# `bounded` with cargo's own status lines silenced.
bounded_bench() {
    local seconds=$1 bench=$2
    cargo bench -q -p microfaas-bench --bench "$bench" --no-run
    bounded "$seconds" cargo bench -q -p microfaas-bench --bench "$bench"
}

# `cargo test ARGS`: built first without a bound, so a slow or cold
# compile cannot fail the stage, then run under `bounded`.
bounded_test() {
    local seconds=$1
    shift
    cargo test "$@" --no-run
    bounded "$seconds" cargo test "$@"
}

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
bounded_test 400 -q --workspace

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings, one crate per output directory)"
# Two crates of one name (the CLI binary and the core library are both
# `microfaas`) overwrite each other's pages. Cargo only warns about that
# "output filename collision", and -D warnings reaches rustdoc, not
# cargo, so the stage looks for the warning itself.
doc_out="$(RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace 2>&1)" || {
    echo "$doc_out"; exit 1; }
echo "$doc_out"
if echo "$doc_out" | grep -q "output filename collision"; then
    echo "cargo doc wrote two crates to one output directory"; exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> dead public surface: every pub fn, const and static is used outside its own file"
# Lists each `pub fn`/`pub const fn`, `pub const NAME` and `pub static
# NAME` in the non-test part of every source file of the simulator
# crates and fails, naming it, when no other tracked file under crates/,
# tests/, examples/, perfbench/, src/ or docs/ names it. A free function,
# a const and a static must appear there as a whole word. A method (a
# `pub fn` inside an `impl TYPE` block whose parameter list, read up to
# its closing parenthesis, takes `self`) must be called there, as
# `.NAME(`, `::NAME(`, `.NAME::<` or `::NAME::<`, or passed by path, as
# `::NAME)` or `::NAME,`, so a same-named field, local variable or word
# in prose does not count; two types' methods of one name still count
# as one. An associated function (one without `self`) must appear there
# as `TYPE::NAME`, so another type's `new` or `parse` does not count.
# Such an item either gains a user or goes (an item used only in its
# own file is not `pub`).
dead=0
for file in $(git ls-files 'crates/sim/src/*.rs' 'crates/core/src/*.rs' \
    'crates/energy/src/*.rs' 'crates/hw/src/*.rs' 'crates/net/src/*.rs' \
    'crates/sched/src/*.rs' 'crates/cli/src/*.rs' 'crates/tco/src/*.rs'); do
    while read -r kind name owner; do
        case "$kind" in
            method) git grep -qE "(\.|::)$name(\(|::<)|::$name[),]" -- \
                crates tests examples perfbench src docs ":!$file" ;;
            assoc) git grep -qwF "$owner::$name" -- \
                crates tests examples perfbench src docs ":!$file" ;;
            *) git grep -qw "$name" -- crates tests examples perfbench src docs ":!$file" ;;
        esac || {
            case "$kind" in method | assoc) item="fn ${owner:+$owner::}$name" ;; *) item="$kind $name" ;; esac
            echo "$file: pub $item has no user outside its file"
            dead=1
        }
    done < <(awk '
        # The parameter list in `text`, the source after a fn name, or ""
        # while it is still open: the first parenthesis outside the
        # generics (whose `->` closes no bracket) up to its match.
        function param_list(text,   i, c, angle, depth, start) {
            for (i = 1; i <= length(text); i++) {
                c = substr(text, i, 1)
                if (depth == 0 && c == "<") angle++
                else if (depth == 0 && c == ">" && substr(text, i - 1, 1) != "-") angle--
                else if (angle == 0 && c == "(" && depth++ == 0) start = i
                else if (angle == 0 && c == ")" && --depth == 0)
                    return substr(text, start, i - start + 1)
            }
            return ""
        }
        /^#\[cfg\(test\)\]/ { exit }
        # An impl block names its type after `impl` and its generics, or
        # after ` for ` in a trait impl.
        /^impl[ <]/ && !/\{\}$/ {
            header = $0
            while (gsub(/<[^<>]*>/, "", header)) {}
            sub(/^impl +/, "", header)
            sub(/.* for /, "", header)
            match(header, /^[A-Za-z0-9_]+/)
            owner = substr(header, RSTART, RLENGTH)
        }
        /^}/ { owner = "" }
        pending != "" { text = text " " $0 }
        pending == "" && match($0, /^ *pub (const )?fn [A-Za-z0-9_]+/) {
            name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
            if (owner == "") print "fn", name
            else { pending = name; text = substr($0, RSTART + RLENGTH) }
        }
        pending != "" && (params = param_list(text)) != "" {
            kind = params ~ /(^|[^A-Za-z0-9_])self([^A-Za-z0-9_]|$)/ ? "method" : "assoc"
            print kind, pending, owner
            pending = ""
        }
        match($0, /^ *pub (const|static) [A-Za-z0-9_]+ *:/) {
            item = substr($0, RSTART, RLENGTH); sub(/ *:$/, "", item)
            n = split(item, words, " ")
            print words[n - 1], words[n]
        }' "$file" | sort -u)
done
[ "$dead" -eq 0 ] || { echo "public items without a user outside their file"; exit 1; }

echo "==> benchmark package: its own tests, then one seed-2022 pass of each of its five workloads"
# perfbench/ is a package of its own, outside the workspace's cargo test.
# Each pass checks its workload's pinned fingerprint, so a slip shows up
# as "failed":1. paper-closed pins the means of 5000 replicates on both
# node classes (SBC and VM) of the one closed-loop engine, and
# policy-sweeps an fnv1a over the CSVs of 7000 sparse open-loop runs:
# both run on the event queue's flat list, so any pop-order slip there
# fails. capacity-1m pins the open-loop engine's streaming path with
# every hook off (16,384 keep-alive SBCs, 1M jobs, NullSink), the path
# observed-1m does not cover, since it adds tenants, attribution and
# telemetry. flash-day's fingerprint counts power
# cycles; observed-1m checks that its energy ledger conserves and pins
# the ledger's picojoule total, so attribution that loses or invents
# joules fails the same way.
bounded_test 30 -q --offline --manifest-path perfbench/Cargo.toml
cargo build --offline --release -q --manifest-path perfbench/Cargo.toml
for workload in paper-closed capacity-1m policy-sweeps flash-day observed-1m; do
    status=0
    bench_out="$(bounded 30 cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --rounds 1)" || status=$?
    echo "$bench_out"
    [ "$status" -ne 124 ] || exit 1
    echo "$bench_out" | tail -n 1 | grep -q '"failed":0' || {
        echo "$workload benchmark pass failed its correctness gate"; exit 1; }
    # The dense open loop's footprint: 16,384 64-byte worker records,
    # one pool of waiting jobs (24 bytes and a 4-byte link each) that
    # grows to the peak backlog, and 24-byte queue entries, with every
    # wheel slot that empties freeing a buffer of more than 256 entries.
    # On a 2-vCPU VM, 615 single capacity-1m passes (seeds 2022 and 7)
    # read 9.53-10.04 MB of peak RSS and 121 observed-1m passes (seed
    # 2022) 12.78-13.13 MB; with a job queue per node and 128-byte
    # records they read 13.6-14.0 and 16.3-16.7 MB.
    case "$workload" in
        capacity-1m) ceiling=11 ;;
        observed-1m) ceiling=14 ;;
        *) ceiling= ;;
    esac
    if [ -n "$ceiling" ]; then
        rss="$(echo "$bench_out" | tail -n 1 \
            | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p')"
        [ -n "$rss" ] || { echo "$workload pass printed no peak_rss_mb"; exit 1; }
        awk -v r="$rss" -v c="$ceiling" 'BEGIN { exit !(r <= c) }' || {
            echo "$workload peak RSS $rss MB exceeds the $ceiling MB ceiling"; exit 1; }
    fi
done

echo "==> benchmark package lints: clippy (deny warnings) and rustfmt"
# The workspace's clippy and fmt stages above do not reach perfbench/,
# a workspace of its own.
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "==> fault-injection smoke runs (examples/faults_crash.json on both node classes)"
# Both classes share one recovery path; the VM run is the only CLI-level
# check of its respawn, boot-retry and retransmit hooks.
for cluster in micro conventional; do
    out="$(cli 30 faults \
        --plan examples/faults_crash.json --invocations 2 --seed 7 --cluster "$cluster")"
    echo "$out" | grep -q "faults injected" || {
        echo "faults subcommand printed no fault summary ($cluster)"; exit 1; }
    echo "$out" | grep -q "faults injected:   0" && {
        echo "checked-in plan injected no faults ($cluster)"; exit 1; }
    echo "$out" | grep -q "accounted:         34 of 34 submitted" || {
        echo "faulted $cluster run lost jobs"; exit 1; }
done

echo "==> every docs/*.md handbook must be doctested"
for doc in docs/*.md; do
    grep -q "include_str!(\"../../../$doc\")" crates/cli/src/lib.rs || {
        echo "$doc has no doctest hook in crates/cli/src/lib.rs"; exit 1; }
done
# Cargo cannot build doctests without running them (rustdoc compiles
# each one in the run), so this bound covers their compiling too; the
# library they link is built by the workspace stage above.
bounded 60 cargo test -q --doc -p microfaas-cli

echo "==> event-queue differential equivalence (tests/queue_equiv.rs)"
bounded_test 30 -q -p microfaas-sim --test queue_equiv

echo "==> event-queue throughput floor (wheel cancel mix >= 4.2 Melem/s pre-rewrite baseline)"
bench_out="$(bounded_bench 30 core_scale)"
echo "$bench_out"
rate="$(echo "$bench_out" | grep "wheel_cancel_timeout_mix/10000 " \
    | sed -n 's/.*(\([0-9.]*\) Melem\/s).*/\1/p')"
[ -n "$rate" ] || { echo "core_scale bench printed no cancel-mix rate"; exit 1; }
awk -v r="$rate" 'BEGIN { exit !(r >= 4.2) }' || {
    echo "cancel-mix throughput $rate Melem/s fell below the 4.2 Melem/s floor"; exit 1; }

echo "==> every BENCH_*.json matches the benchmark-record schema"
python3 -c "
import glob, json
files = sorted(glob.glob('BENCH_*.json'))
assert files, 'no BENCH_*.json records found'
for path in files:
    with open(path) as f:
        record = json.load(f)
    for key in ('bench', 'command', 'date', 'host'):
        assert key in record, f'{path} missing required key {key!r}'
    expected = path[len('BENCH_'):-len('.json')]
    assert record['bench'] == expected, (path, record['bench'])
    assert record['command'].startswith('cargo '), (path, record['command'])
print('validated:', ', '.join(files))
"

echo "==> the 10M-job recipe completes every job (streaming, 16,384 keep-alive SBCs)"
# The recipe behind BENCH_core_scale.json's ten_million_job_recipe,
# run rather than read from the record: about 4 s on a 2-vCPU VM.
out="$(cli 60 openloop --streaming --jobs-per-tick 10000 --duration-secs 1000 \
    --workers 16384 --governor keep-alive --seed 2022)"
echo "$out"
echo "$out" | grep -q "completed:        10000000" || {
    echo "the 10M-job recipe did not complete 10,000,000 jobs"; exit 1; }

echo "==> result-cache throughput floor (hot-hit lookups >= 20 Melem/s)"
cache_bench_out="$(bounded_bench 30 result_cache)"
echo "$cache_bench_out"
cache_rate="$(echo "$cache_bench_out" | grep "cache_lookup/hot_hit/4096 " \
    | sed -n 's/.*(\([0-9.]*\) Melem\/s).*/\1/p')"
[ -n "$cache_rate" ] || { echo "result_cache bench printed no hot-hit rate"; exit 1; }
awk -v r="$cache_rate" 'BEGIN { exit !(r >= 20) }' || {
    echo "cache hot-hit throughput $cache_rate Melem/s fell below the 20 Melem/s floor"; exit 1; }
echo "$cache_bench_out" | grep -q "flash_crowd_zipf: cache off vs" || {
    echo "result_cache bench printed no flash-crowd comparison"; exit 1; }

echo "==> serial/parallel determinism parity (tests/parallel_exec.rs)"
bounded_test 30 -q --test parallel_exec

echo "==> parallel sweep smoke: --jobs 2 CSV must be byte-identical to --jobs 1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cli 30 sweep \
    --max-vms 4 --invocations 2 --seed 7 --jobs 1 --csv "$tmpdir/serial.csv"
cli 30 sweep \
    --max-vms 4 --invocations 2 --seed 7 --jobs 2 --csv "$tmpdir/parallel.csv"
cmp "$tmpdir/serial.csv" "$tmpdir/parallel.csv" || {
    echo "parallel sweep diverged from serial"; exit 1; }

echo "==> policy sweep smoke: sched --jobs 2 Pareto CSV must be byte-identical to --jobs 1"
cli 30 sched \
    --rate 0.5 --duration-secs 120 --workers 4 --seed 7 \
    --jobs 1 --csv "$tmpdir/sched_serial.csv"
cli 30 sched \
    --rate 0.5 --duration-secs 120 --workers 4 --seed 7 \
    --jobs 2 --csv "$tmpdir/sched_parallel.csv"
cmp "$tmpdir/sched_serial.csv" "$tmpdir/sched_parallel.csv" || {
    echo "parallel policy sweep diverged from serial"; exit 1; }
grep -q ",1$" "$tmpdir/sched_serial.csv" || {
    echo "policy sweep flagged no Pareto-front points"; exit 1; }

echo "==> scenarios smoke: per-regime winners, --jobs 2 CSV byte-identical to --jobs 1"
cat > "$tmpdir/scenarios.json" <<'EOF'
{"scenarios": [
  {"name": "spiky", "arrivals": "flash:0.2,60,60,2"},
  {"name": "skewed", "arrivals": "poisson:0.5", "popularity": "zipf:1.1",
   "tenants": [{"name": "paid", "weight": 1.0, "slo_latency_s": 5.0}]}
]}
EOF
cli 30 scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --jobs 1 --csv "$tmpdir/scenarios_serial.csv"
cli 30 scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --jobs 2 --csv "$tmpdir/scenarios_parallel.csv"
cmp "$tmpdir/scenarios_serial.csv" "$tmpdir/scenarios_parallel.csv" || {
    echo "parallel scenario sweep diverged from serial"; exit 1; }
[ "$(grep -c ",1$" "$tmpdir/scenarios_serial.csv")" -eq 2 ] || {
    echo "scenario sweep did not name exactly one winner per regime"; exit 1; }
grep -q "^skewed," "$tmpdir/scenarios_serial.csv" || {
    echo "scenario CSV missing a spec-file regime"; exit 1; }

echo "==> cached scenarios smoke: --cache lru:1024, --jobs 2 CSV byte-identical to --jobs 1"
cli 30 scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --cache lru:1024 --jobs 1 --csv "$tmpdir/scenarios_cached_serial.csv"
cli 30 scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --cache lru:1024 --jobs 2 --csv "$tmpdir/scenarios_cached_parallel.csv"
cmp "$tmpdir/scenarios_cached_serial.csv" "$tmpdir/scenarios_cached_parallel.csv" || {
    echo "cached parallel scenario sweep diverged from serial"; exit 1; }
awk -F, 'NR > 1 && $11 > 0 { hits++ } END { exit !(hits > 0) }' \
    "$tmpdir/scenarios_cached_serial.csv" || {
    echo "cached scenario sweep recorded no cache hits"; exit 1; }

echo "==> energy conservation property tests (tests/energy_conservation.rs)"
bounded_test 30 -q -p microfaas --test energy_conservation

echo "==> attribution differential oracle, deep (16x the default 256 cases)"
# Holds the attributor's channel layout to the map-based reference over
# 4096 random lifecycles instead of the workspace run's 256.
PROPTEST_CASES=4096 \
    bounded_test 30 -q --release -p microfaas-energy --test attribution_oracle

echo "==> energy smoke: --breakdown conserves, --jobs 2 ledger CSV byte-identical to --jobs 1"
out="$(cli 30 energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 --breakdown)"
echo "$out" | grep -q "conservation:     attributed + idle == total" || {
    echo "energy run failed its conservation cross-check"; exit 1; }
echo "$out" | grep -q "queue_j" || {
    echo "energy --breakdown printed no five-phase table"; exit 1; }
cli 30 energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 \
    --budget 0.5,burst=5,action=shed --idle usage-weighted \
    --jobs 1 --csv "$tmpdir/energy_serial.csv"
cli 30 energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 \
    --budget 0.5,burst=5,action=shed --idle usage-weighted \
    --jobs 2 --csv "$tmpdir/energy_parallel.csv"
cmp "$tmpdir/energy_serial.csv" "$tmpdir/energy_parallel.csv" || {
    echo "parallel energy ledger diverged from serial"; exit 1; }
grep -q ",(idle)," "$tmpdir/energy_serial.csv" || {
    echo "energy ledger CSV missing the idle remainder row"; exit 1; }

echo "==> monitor smoke: inertness cross-check, burn-rate alerts, --jobs 2 CSV byte-identical to --jobs 1"
monitor_flags=(--arrivals flash:0.2,120,60,40 --duration-secs 600 --workers 12
    --governor keep-alive --tenants paid:1:2.5,free:4:30 --seed 2022)
out="$(cli 30 monitor \
    "${monitor_flags[@]}" --jobs 1 --csv "$tmpdir/monitor_serial.csv")"
echo "$out" | grep -q "verified inert" || {
    echo "monitor skipped its telemetry-inertness cross-check"; exit 1; }
echo "$out" | grep -q "burn-rate" || {
    echo "flash crowd raised no burn-rate alert"; exit 1; }
cli 30 monitor \
    "${monitor_flags[@]}" --jobs 2 --csv "$tmpdir/monitor_parallel.csv" > /dev/null
cmp "$tmpdir/monitor_serial.csv" "$tmpdir/monitor_parallel.csv" || {
    echo "monitored time series diverged across --jobs"; exit 1; }

echo "==> BENCH_telemetry.json records the <= 10% monitored-run budget"
python3 -c "
import json
with open('BENCH_telemetry.json') as f:
    record = json.load(f)
assert record['bench'] == 'telemetry', record['bench']
delta = record['capacity_recipe_10m']['overhead_pct']
assert delta <= 10.0, f'recorded telemetry overhead {delta}% blows the 10% budget'
"

echo "==> analyze smoke: span derivation, phase-sum check, Perfetto round-trip"
out="$(cli 30 analyze \
    --invocations 2 --seed 7 --perfetto "$tmpdir/spans.json")"
echo "$out" | grep -q "phase decomposition check" || {
    echo "analyze skipped the phase-sum verification"; exit 1; }
echo "$out" | grep -q "critical-path phase breakdown" || {
    echo "analyze printed no critical-path table"; exit 1; }
# export_chrome_trace self-validates with the hand-rolled parser before
# writing; re-run the round-trip here on the bytes that reached disk.
bounded_test 30 -q --test span_parity perfetto_export_round_trips_the_parser
grep -q '"ph":"X"' "$tmpdir/spans.json" || {
    echo "perfetto export contains no complete slices"; exit 1; }
grep -q '"traceEvents"' "$tmpdir/spans.json" || {
    echo "perfetto export missing traceEvents envelope"; exit 1; }

echo "==> analyze smoke: --jobs 2 phase CSV must be byte-identical to --jobs 1"
cli 30 analyze \
    --invocations 2 --seed 7 --jobs 1 --csv "$tmpdir/spans_serial.csv"
cli 30 analyze \
    --invocations 2 --seed 7 --jobs 2 --csv "$tmpdir/spans_parallel.csv"
cmp "$tmpdir/spans_serial.csv" "$tmpdir/spans_parallel.csv" || {
    echo "parallel analyze diverged from serial"; exit 1; }

echo "All checks passed."
