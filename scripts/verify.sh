#!/usr/bin/env bash
# Full offline verification gate: build, test, lint.
#
# Everything runs with --offline — the workspace has no external
# dependencies and must keep building from a cold cargo registry.
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

# The root manifest's default-members cover every crate, so this runs
# the whole workspace's tests, not just the root package's.
echo "==> cargo test -q --offline"
cargo test -q --offline

# perfbench is its own workspace (read, never edited, by this gate).
echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> telemetry smoke test (E3 swap scenario)"
snap="$(mktemp -d)/swap.jsonl"
./target/release/vapres-cli sim --swap seamless --metrics "$snap" >/dev/null
steps="$(grep -c '"name":"swap_step"' "$snap")"
if [ "$steps" -ne 9 ]; then
    echo "expected nine swap_step spans in $snap, got $steps" >&2
    exit 1
fi
# grep without -q drains the whole stream: with pipefail, -q's early
# exit would EPIPE the writer and flakily fail the gate.
./target/release/vapres-cli report --metrics "$snap" \
    | grep "0 missed sample slots" >/dev/null \
    || { echo "report did not confirm zero stream interruption" >&2; exit 1; }
rm -rf "$(dirname "$snap")"

echo "==> watchdog smoke test (sim --health on the seamless and halt E3 swaps)"
./target/release/vapres-cli sim --swap seamless --health yes \
    | grep "overall: HEALTHY" >/dev/null \
    || { echo "sim --swap seamless --health yes did not report HEALTHY" >&2; exit 1; }
# The halt-and-swap baseline must breach the stream monitors and exit
# non-zero — --health is a seamlessness regression gate.
if ./target/release/vapres-cli sim --swap halt --health yes >/dev/null 2>&1; then
    echo "sim --swap halt --health yes unexpectedly passed" >&2
    exit 1
fi

echo "==> flight recorder smoke test (dump-on-SwapError)"
flight="$(mktemp -d)/flight.jsonl"
if ./target/release/vapres-cli sim --swap seamless --samples 2000 \
    --fail-swap yes --flight-dump "$flight" >/dev/null 2>&1; then
    echo "sim --fail-swap yes unexpectedly succeeded" >&2
    exit 1
fi
grep -q '"event":"swap_failed".*"step":"2_reconfigure_spare"' "$flight" \
    || { echo "flight dump missing the failing swap step" >&2; exit 1; }
rm -rf "$(dirname "$flight")"

echo "==> flight recorder freshness (a long stream's dump ends at the end of the run)"
# Hundreds of thousands of FIFO crossings with no control event between
# them: the ring must keep the newest, so the last dumped event lies
# within 1 ms of the report's final sim time.
fresh="$(mktemp -d)"
./target/release/vapres-cli sim --swap seamless --samples 60000 \
    --flight-dump "$fresh/flight.jsonl" > "$fresh/report.txt"
last_ps="$(tail -n 1 "$fresh/flight.jsonl" | sed -n 's/^{"at_ps":\([0-9]*\),.*/\1/p')"
awk -v last="$last_ps" '
    /^sim time/ {
        scale["s"] = 1e12; scale["ms"] = 1e9; scale["us"] = 1e6; scale["ps"] = 1
        end = $4 * scale[$5]; found = 1
    }
    END {
        if (!found || last == "") { print "no sim time or flight event to compare" > "/dev/stderr"; exit 1 }
        if (end - last > 1e9) {
            printf "flight dump is stale: last event at %.0f ps, run ended at %.0f ps\n", last, end > "/dev/stderr"
            exit 1
        }
    }' "$fresh/report.txt"
rm -rf "$fresh"

echo "==> checkpoint restore == never-stopped (every image of a seamless and a halt run)"
# Restoring any checkpoint with --health must print what the run that
# never stopped prints — the swap line, the stream summary and every
# verdict — and exit with its status. A checkpointed run itself must
# end where a plain one does.
ckptdir="$(mktemp -d)"
outcome() { # the lines a restored run must reproduce
    grep -E '^(swap |samples out|sim time|throughput|max gap|  \[|overall)' || true
}
for method in seamless halt; do
    plain_status=0
    ./target/release/vapres-cli sim --swap "$method" --samples 2000 --health yes \
        > "$ckptdir/plain_$method.txt" 2> "$ckptdir/plain_$method.err" || plain_status=$?
    outcome < "$ckptdir/plain_$method.txt" > "$ckptdir/want_$method.txt"
    grep -q "monitors" "$ckptdir/want_$method.txt" \
        || { echo "sim --swap $method --health yes printed no verdicts" >&2; exit 1; }
    ./target/release/vapres-cli sim --swap "$method" --samples 2000 \
        --checkpoint-every 300 --checkpoint-dir "$ckptdir/$method" > "$ckptdir/ckpt_$method.txt"
    cmp -s <(outcome < "$ckptdir/ckpt_$method.txt") \
           <(grep -v -e '^  \[' -e '^overall' "$ckptdir/want_$method.txt") \
        || { echo "a checkpointed $method run ends differently from a plain one" >&2; exit 1; }
    images=0
    for image in "$ckptdir/$method"/ckpt_*.vapresck; do
        [ -e "$image" ] || { echo "sim --swap $method wrote no checkpoints" >&2; exit 1; }
        status=0
        ./target/release/vapres-cli sim --restore "$image" --health yes \
            > "$ckptdir/restored.txt" 2> "$ckptdir/restored.err" || status=$?
        if [ "$status" -ne "$plain_status" ] \
            || ! cmp -s <(outcome < "$ckptdir/restored.txt") "$ckptdir/want_$method.txt" \
            || ! cmp -s "$ckptdir/restored.err" "$ckptdir/plain_$method.err"; then
            echo "restoring $image (exit $status) differs from the uninterrupted $method run" \
                "(exit $plain_status):" >&2
            diff <(outcome < "$ckptdir/restored.txt") "$ckptdir/want_$method.txt" >&2 || true
            diff "$ckptdir/restored.err" "$ckptdir/plain_$method.err" >&2 || true
            exit 1
        fi
        images=$((images + 1))
    done
    echo "    $method: $images images restore to the uninterrupted run (exit $plain_status)"
done
rm -rf "$ckptdir"

echo "==> time-series and timeline smoke (sim exports, one trace, sweep series jobs-invariant)"
tsdir="$(mktemp -d)"
./target/release/vapres-cli sim --swap seamless --samples 2000 --sample-every 100 \
    --profile yes --flight-dump "$tsdir/flight.jsonl" --trace-json "$tsdir/trace.json" \
    --timeseries "$tsdir/ts.jsonl" --timeseries-csv "$tsdir/ts.csv" >/dev/null
grep -q '"type":"series"' "$tsdir/ts.jsonl" \
    || { echo "time-series JSONL missing series header lines" >&2; exit 1; }
grep -q '"type":"frame"' "$tsdir/ts.jsonl" \
    || { echo "time-series JSONL missing frame lines" >&2; exit 1; }
head -n 1 "$tsdir/ts.csv" | grep -q '^metric,labels,at_ps,value$' \
    || { echo "time-series CSV missing its header row" >&2; exit 1; }
# One timeline, two clocks: sim-time spans/counters/instants on pid 1,
# host-time profiler scopes on pid 2, each process named.
timeline_has() { # <what> <fixed string>
    grep -qF "$2" "$tsdir/trace.json" \
        || { echo "timeline missing $1 ($2)" >&2; exit 1; }
}
timeline_has "the sim-time process name" '"name":"process_name","ph":"M","pid":1,'
timeline_has "the host-time process name" '"name":"process_name","ph":"M","pid":2,'
timeline_has "a counter on the sim pid" '"ph":"C","pid":1,'
timeline_has "a profiler scope on the host pid" '"ph":"X","pid":2,"tid":1,"cat":"host",'
timeline_has "the 71.907 ms reconfiguration step in exact us" '"dur":71907.208202'
# --timeseries-trace was folded into --trace-json: it must be refused.
if ./target/release/vapres-cli sim --timeseries-trace "$tsdir/x.json" 2> "$tsdir/err.txt"; then
    echo "sim --timeseries-trace unexpectedly succeeded" >&2
    exit 1
fi
grep -q "unknown option" "$tsdir/err.txt" \
    || { echo "sim --timeseries-trace failed without naming an unknown option" >&2; exit 1; }
for j in 1 4; do
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --jobs "$j" \
        --sample-every 100 --timeseries "$tsdir/series_j$j.jsonl" >/dev/null
done
cmp -s "$tsdir/series_j1.jsonl" "$tsdir/series_j4.jsonl" \
    || { echo "sweep time-series differs between --jobs 1 and --jobs 4" >&2; exit 1; }
rm -rf "$tsdir"

echo "==> regression diff gate (vapres diff vs committed golden baseline)"
# must_regress <what> <pattern> <baseline> <candidate>: the diff must
# fail AND name the injected field in a REGRESSED line, so a reader that
# rejects the file for another reason does not pass as a catch.
must_regress() {
    local out
    if out="$(./target/release/vapres-cli diff "$3" "$4" 2>&1)"; then
        echo "diff missed an injected $1" >&2
        exit 1
    fi
    grep -q "REGRESSED $2" <<<"$out" \
        || { echo "diff failed on the injected $1 without naming it:" >&2; echo "$out" >&2; exit 1; }
}
diffdir="$(mktemp -d)"
./target/release/vapres-cli sweep \
    --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
    --samples 300 --interval 50 --seed 7 \
    --bench "$diffdir/BENCH_sweep.json" >/dev/null
# Self-diff is the trivial no-regression case.
./target/release/vapres-cli diff \
    scripts/golden/BENCH_sweep.json scripts/golden/BENCH_sweep.json >/dev/null \
    || { echo "self-diff of the golden baseline reported a regression" >&2; exit 1; }
# The gate itself: this build's trajectory against the committed one.
./target/release/vapres-cli diff \
    scripts/golden/BENCH_sweep.json "$diffdir/BENCH_sweep.json" \
    || { echo "sweep trajectory regressed vs scripts/golden/BENCH_sweep.json" >&2; exit 1; }
# An injected +20% p99 word latency must trip the gate (exit non-zero).
sed 's/"p99_e2e_ps":250000/"p99_e2e_ps":300000/' "$diffdir/BENCH_sweep.json" \
    > "$diffdir/BENCH_regressed.json"
must_regress "+20% p99 latency regression" ".* p99_e2e_ps: 250000 -> 300000 " \
    scripts/golden/BENCH_sweep.json "$diffdir/BENCH_regressed.json"
# Same drill on a telemetry dump: stretch the end-to-end latency
# histogram's bucket width 20% and the percentile comparison must fail.
./target/release/vapres-cli sim --swap seamless --samples 2000 --trace-words 10 \
    --metrics "$diffdir/metrics.jsonl" >/dev/null
./target/release/vapres-cli diff "$diffdir/metrics.jsonl" "$diffdir/metrics.jsonl" >/dev/null \
    || { echo "telemetry self-diff reported a regression" >&2; exit 1; }
sed '/"name":"word_e2e_latency_ps"/s/"bucket_width":250000/"bucket_width":300000/' \
    "$diffdir/metrics.jsonl" > "$diffdir/metrics_slow.jsonl"
must_regress "word-latency histogram regression" "word_e2e_latency_ps[^ ]* p99: " \
    "$diffdir/metrics.jsonl" "$diffdir/metrics_slow.jsonl"
rm -rf "$diffdir"

echo "==> bitstream cache smoke (repeat swap >=10x, jobs/warmth-invariant, diff-gated)"
cachedir="$(mktemp -d)"
cache_sweep() { # $1 = jobs, $2 = output tag, $3 = extra flags
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2 --fifo-depth 512 --swap seamless \
        --samples 300 --interval 50 --seed 7 --jobs "$1" $3 \
        --bitstream-cache 0,4 --bench "$cachedir/BENCH_$2.json" \
        > "$cachedir/report_$2.txt"
}
cache_sweep 1 j1 ""
cache_sweep 4 j4 ""
cache_sweep 1 cold "--cold yes"
# The cached sweep obeys the same determinism contract as the uncached
# one: byte-identical across job counts and warm/cold starts (reports
# modulo the path-bearing "wrote" line, trajectories modulo "host").
for t in j4 cold; do
    cmp -s <(grep -v '^wrote ' "$cachedir/report_j1.txt") \
           <(grep -v '^wrote ' "$cachedir/report_$t.txt") \
        || { echo "cached sweep report differs between j1 and $t" >&2; exit 1; }
    cmp -s <(grep -v '"host"' "$cachedir/BENCH_j1.json") \
           <(grep -v '"host"' "$cachedir/BENCH_$t.json") \
        || { echo "cached BENCH_sweep.json differs between j1 and $t" >&2; exit 1; }
done
grep -q "repeat swap: cold " "$cachedir/report_j1.txt" \
    || { echo "cached sweep report missing the repeat-swap line" >&2; exit 1; }
# The headline number: the cached replay of a staged bitstream must beat
# the cold CompactFlash configuration by at least 10x.
cold_ps="$(sed -n 's/.*"repeat_swap_cold_ps":\([0-9][0-9]*\).*/\1/p' "$cachedir/BENCH_j1.json")"
warm_ps="$(sed -n 's/.*"repeat_swap_warm_ps":\([0-9][0-9]*\).*/\1/p' "$cachedir/BENCH_j1.json")"
[ -n "$cold_ps" ] && [ -n "$warm_ps" ] \
    || { echo "cached BENCH row missing repeat-swap fields" >&2; exit 1; }
awk -v c="$cold_ps" -v w="$warm_ps" 'BEGIN { exit !(c >= 10 * w) }' \
    || { echo "cached repeat swap not >=10x faster (cold $cold_ps ps, warm $warm_ps ps)" >&2; exit 1; }
# vapres diff gates the new trajectory fields: an eroded cache win
# (slower warm replay) must trip the gate.
./target/release/vapres-cli diff \
    "$cachedir/BENCH_j1.json" "$cachedir/BENCH_j4.json" >/dev/null \
    || { echo "cached trajectory self-diff reported a regression" >&2; exit 1; }
sed "s/\"repeat_swap_warm_ps\":$warm_ps/\"repeat_swap_warm_ps\":9$warm_ps/" \
    "$cachedir/BENCH_j1.json" > "$cachedir/BENCH_eroded.json"
must_regress "repeat-swap erosion" ".* repeat_swap_warm_ps: $warm_ps -> 9$warm_ps " \
    "$cachedir/BENCH_j1.json" "$cachedir/BENCH_eroded.json"
rm -rf "$cachedir"

echo "==> live endpoint probe (/metrics /health /flight over raw TCP, no curl)"
livedir="$(mktemp -d)"
./target/release/vapres-cli sim --samples 8000000 --sample-every 100 \
    --live-port 0 > "$livedir/sim.log" &
live_pid=$!
probe() { # $1 = port, $2 = path; prints the whole HTTP response
    ( exec 3<>"/dev/tcp/127.0.0.1/$1" \
        && printf 'GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n' "$2" >&3 \
        && cat <&3 ) 2>/dev/null || true
}
live_port=""
metrics_resp=""
for _ in $(seq 1 100); do
    [ -z "$live_port" ] && live_port="$(sed -n \
        's|live endpoint: http://127.0.0.1:\([0-9]*\)/.*|\1|p' "$livedir/sim.log")"
    if [ -n "$live_port" ]; then
        metrics_resp="$(probe "$live_port" /metrics)"
        case "$metrics_resp" in *vapres_*) break ;; esac
    fi
    sleep 0.1
done
case "$metrics_resp" in
    *"200 OK"*vapres_*) : ;;
    *) echo "live /metrics never served a Prometheus payload mid-run" >&2; exit 1 ;;
esac
probe "$live_port" /health | grep -q '"type":"health"' \
    || { echo "live /health missing the watchdog summary line" >&2; exit 1; }
probe "$live_port" /flight | grep -q "200 OK" \
    || { echo "live /flight did not answer 200" >&2; exit 1; }
probe "$live_port" /nope | grep -q "404 Not Found" \
    || { echo "live endpoint did not 404 an unknown path" >&2; exit 1; }
wait "$live_pid" \
    || { echo "sim --live-port run failed" >&2; exit 1; }
rm -rf "$livedir"

echo "==> sweep smoke test (small grid, parallel, warm == cold, deterministic merge)"
sweepdir="$(mktemp -d)"
vapres_bin="$PWD/target/release/vapres-cli"
sweep_grid() { # $1 = job count, $2 = output subdir, $3 = extra flags
    mkdir -p "$sweepdir/$2"
    (cd "$sweepdir/$2" && "$vapres_bin" sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --jobs "$1" $3 \
        --jsonl merged.jsonl --bench BENCH_sweep.json > report.txt)
}
sweep_grid 1 seq ""
sweep_grid 4 par ""
sweep_grid 1 cold-seq "--cold yes"
sweep_grid 4 cold-par "--cold yes"
# Warm-start forks every scenario from a restored prefix checkpoint;
# its outputs must be byte-identical to unshared cold runs at every
# job count.
for d in par cold-seq cold-par; do
    for f in report.txt merged.jsonl; do
        cmp -s "$sweepdir/seq/$f" "$sweepdir/$d/$f" \
            || { echo "sweep $f differs between seq and $d" >&2; exit 1; }
    done
    # The trajectory is invariant except its one "host" context line
    # (CPU count, --jobs, runner mode, wall-clock), which necessarily
    # differs between the runs.
    cmp -s <(grep -v '"host"' "$sweepdir/seq/BENCH_sweep.json") \
           <(grep -v '"host"' "$sweepdir/$d/BENCH_sweep.json") \
        || { echo "sweep BENCH_sweep.json differs between seq and $d" >&2; exit 1; }
done
grep -q '"host": {"cpus": [0-9]*, "jobs": 4, "mode": "warm", "wall_ms": [0-9]*}' \
    "$sweepdir/par/BENCH_sweep.json" \
    || { echo "BENCH_sweep.json missing the host context line" >&2; exit 1; }
grep -q '"mode": "cold"' "$sweepdir/cold-par/BENCH_sweep.json" \
    || { echo "cold BENCH_sweep.json did not record cold mode" >&2; exit 1; }
grep -q "aggregate: 4 ok, 0 failed" "$sweepdir/seq/report.txt" \
    || { echo "sweep report missing healthy aggregate line" >&2; exit 1; }
rm -rf "$sweepdir"

echo "==> fabric batching smoke (batched route work <=20% of dense on E3)"
cargo bench -q --offline -p vapres-bench --bench fabric >/dev/null
awk -F'[,:{}"]+' '
    /"scenario"/ {
        scen=""; mode=""; work=-1; words=-1
        for (i = 1; i < NF; i++) {
            if ($i == "scenario")   scen  = $(i + 1)
            if ($i == "mode")       mode  = $(i + 1)
            if ($i == "route_work") work  = $(i + 1)
            if ($i == "words")      words = $(i + 1)
        }
        if (mode == "dense") { dw[scen] = work; dn[scen] = words }
        if (mode == "batched") { bw[scen] = work; bn[scen] = words }
    }
    END {
        bad = 0
        if (length(dw) == 0) { print "no scenarios parsed from BENCH_fabric.json"; bad = 1 }
        for (s in dw) {
            printf "    %s: batched route work %.2f%% of dense, %d words\n", \
                s, 100 * bw[s] / dw[s], bn[s]
            if (bn[s] != dn[s]) {
                printf "    words differ on %s: dense %d batched %d\n", s, dn[s], bn[s]
                bad = 1
            }
            if (bw[s] > 0.20 * dw[s]) {
                printf "    batched route work on %s exceeds 20%% of dense\n", s
                bad = 1
            }
        }
        exit bad
    }' crates/bench/BENCH_fabric.json \
    || { echo "fabric batching smoke failed" >&2; exit 1; }

echo "==> profiler smoke (sim --profile on E3, cost-model work plane and profiled series jobs/warmth-invariant)"
profdir="$(mktemp -d)"
./target/release/vapres-cli sim --swap seamless --samples 2000 --profile yes \
    --flame "$profdir/flame.folded" --cost-model "$profdir/cost.json" \
    > "$profdir/profile.txt"
grep -q "top 10 scopes by host self time" "$profdir/profile.txt" \
    || { echo "sim --profile yes missing its top-10 table" >&2; exit 1; }
grep -q "self%" "$profdir/profile.txt" \
    || { echo "sim --profile yes top-10 table missing its header" >&2; exit 1; }
grep -q "run;" "$profdir/flame.folded" \
    || { echo "collapsed flamegraph missing nested run; stacks" >&2; exit 1; }
grep -q '"cost_model"' "$profdir/cost.json" \
    || { echo "cost model missing its version stamp" >&2; exit 1; }
grep -q '"component":"icap/words"' "$profdir/cost.json" \
    || { echo "cost model missing the icap/words component" >&2; exit 1; }
# The diff subcommand understands cost models: self-diff passes even
# though host_ns would never reproduce, and a work-unit drift trips it.
./target/release/vapres-cli diff "$profdir/cost.json" "$profdir/cost.json" >/dev/null \
    || { echo "cost-model self-diff reported a regression" >&2; exit 1; }
sed 's/"component":"icap\/words","work_units":\([0-9]*\)/"component":"icap\/words","work_units":1\1/' \
    "$profdir/cost.json" > "$profdir/cost_drift.json"
must_regress "work-unit drift in the cost model" "icap/words work_units: \([0-9]*\) -> 1\1 " \
    "$profdir/cost.json" "$profdir/cost_drift.json"
# The work-unit plane of a profiled sweep is simulation state: identical
# across job counts and warm/cold once the machine-dependent host fields
# (host_ns and the derived ns_per_unit) are stripped.
profile_sweep() { # $1 = jobs, $2 = extra flags, $3 = output tag
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --seed 7 --jobs "$1" $2 \
        --profile yes --cost-model "$profdir/model_$3.json" >/dev/null
    sed 's/"host_ns":.*//' "$profdir/model_$3.json" > "$profdir/work_$3.txt"
}
profile_sweep 1 "" j1
profile_sweep 4 "" j4
profile_sweep 1 "--cold yes" cold
cmp -s "$profdir/work_j1.txt" "$profdir/work_j4.txt" \
    || { echo "sweep cost-model work plane differs between --jobs 1 and 4" >&2; exit 1; }
cmp -s "$profdir/work_j1.txt" "$profdir/work_cold.txt" \
    || { echo "sweep cost-model work plane differs between warm and cold" >&2; exit 1; }
grep -q '"component":"fabric/route' "$profdir/model_j1.json" \
    || { echo "merged sweep cost model missing per-route components" >&2; exit 1; }
# Profiling and sampling combine in one sweep: its series equals the
# sampled-only sweep's, and its series and work plane are identical
# across job counts and warm/cold.
sampled_sweep() { # $1 = jobs, $2 = extra flags, $3 = output tag
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --seed 7 --jobs "$1" $2 \
        --sample-every 100 --timeseries "$profdir/series_$3.jsonl" >/dev/null
}
sampled_sweep 1 "" alone
for run in "1 j1" "4 j4" "1 cold --cold yes"; do
    read -r jobs tag extra <<< "$run"
    sampled_sweep "$jobs" "$extra --profile yes --cost-model $profdir/both_$tag.json" "both_$tag"
    sed 's/"host_ns":.*//' "$profdir/both_$tag.json" > "$profdir/both_work_$tag.txt"
    cmp -s "$profdir/series_alone.jsonl" "$profdir/series_both_$tag.jsonl" \
        || { echo "profiled+sampled sweep series ($tag) differs from the sampled-only sweep" >&2; exit 1; }
done
cmp -s "$profdir/both_work_j1.txt" "$profdir/both_work_j4.txt" \
    || { echo "profiled+sampled sweep work plane differs between --jobs 1 and 4" >&2; exit 1; }
cmp -s "$profdir/both_work_j1.txt" "$profdir/both_work_cold.txt" \
    || { echo "profiled+sampled sweep work plane differs between warm and cold" >&2; exit 1; }
rm -rf "$profdir"

echo "==> fleet smoke (multi-RSB run byte-identical across runs, diff-gated)"
fleetdir="$(mktemp -d)"
fleet_run() { # $1 = output tag
    ./target/release/vapres-cli fleet \
        --rsbs 6 --swaps 6 --samples 200 --interval 50 \
        --jsonl "$fleetdir/merged_$1.jsonl" --flight "$fleetdir/flight_$1.jsonl" \
        --bench "$fleetdir/BENCH_$1.json" > "$fleetdir/report_$1.txt"
}
fleet_run a
fleet_run b
# The determinism contract: the wall clock lives on the `host:` report
# line and the `"host"` trajectory line alone. Filter those and two runs
# must byte-match; the merged JSONL and flight must match exactly.
cmp -s <(grep -v -e '^wrote ' -e '^host:' "$fleetdir/report_a.txt") \
       <(grep -v -e '^wrote ' -e '^host:' "$fleetdir/report_b.txt") \
    || { echo "fleet report differs between two runs" >&2; exit 1; }
for f in merged flight; do
    cmp -s "$fleetdir/${f}_a.jsonl" "$fleetdir/${f}_b.jsonl" \
        || { echo "fleet $f JSONL differs between two runs" >&2; exit 1; }
done
cmp -s <(grep -v '"host"' "$fleetdir/BENCH_a.json") \
       <(grep -v '"host"' "$fleetdir/BENCH_b.json") \
    || { echo "fleet BENCH_fleet.json differs between two runs" >&2; exit 1; }
grep -q 'aggregate: 6 healthy, 0 breached, 0 undrained' "$fleetdir/report_a.txt" \
    || { echo "fleet report missing healthy aggregate line" >&2; exit 1; }
# The fleet runs on one thread: the removed --jobs flag must be rejected
# as an unknown option.
if jobs_err="$(./target/release/vapres-cli fleet --jobs 2 2>&1)"; then
    echo "fleet accepted the removed --jobs flag" >&2
    exit 1
fi
echo "$jobs_err" | grep -q 'unknown option --jobs' \
    || { echo "fleet --jobs failed for the wrong reason: $jobs_err" >&2; exit 1; }
# vapres diff understands fleet trajectories: the two runs gate each
# other (the host line is skipped), and an injected work-unit drift on
# the deterministic plane must trip it.
./target/release/vapres-cli diff \
    "$fleetdir/BENCH_a.json" "$fleetdir/BENCH_b.json" >/dev/null \
    || { echo "fleet trajectory self-diff reported a regression" >&2; exit 1; }
sed 's/"work_units":\([0-9][0-9]*\)/"work_units":1\1/' \
    "$fleetdir/BENCH_a.json" > "$fleetdir/BENCH_drift.json"
must_regress "fleet work-unit drift" "rsb0 work_units: \([0-9]*\) -> 1\1 " \
    "$fleetdir/BENCH_a.json" "$fleetdir/BENCH_drift.json"
# The same sed reaches the merged `work` rows, which diff names by
# component and field.
must_regress "fleet merged work drift" "work exec/fabric work_units: \([0-9]*\) -> 1\1" \
    "$fleetdir/BENCH_a.json" "$fleetdir/BENCH_drift.json"
rm -rf "$fleetdir"

echo "==> overhead guards (disabled instrumentation, sampling, profiling within 2% of bare; sampled dispatch profiling within 0.25x of exact; churned fabric within 1.5x of fresh)"
# The disabled-telemetry, -sampler and -profiler paths must each stay one
# predictable branch per site. The micro bench times each bare loop and
# its variants in 201 short rounds in rotating order and reports the
# median of the per-round ratios, so host drift slower than a round
# (another tenant, a clock change) cancels out of every ratio instead of
# being filtered by retries. An always-on registry lookup in a disabled
# path reads far above the bound.
# The sampling guard keeps the enabled profiler cheap enough to leave on:
# a sampled dispatch (`Profiler::dispatch`, clock read about 1 in 16
# calls) must cost at most a quarter of an exactly timed `begin`/`end`,
# so a dispatch path that reads the clock on every call fails it.
# The churn guard keeps the swap path history-independent: streaming on
# a fabric behind 1,000 released channel slots must cost what it costs
# on a fresh fabric, so a per-route scan over every slot ever issued
# fails it.
lines="$(cargo bench -q --offline -p vapres-bench --bench micro 2>/dev/null \
    | grep 'overhead:')"
echo "$lines" | sed 's/^ */    /'
m="$(echo "$lines" | sed -n 's/.*metrics overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
s="$(echo "$lines" | sed -n 's/.*sampling overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
p="$(echo "$lines" | sed -n 's/.*profile overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
q="$(echo "$lines" | sed -n 's/.*profile sampling overhead: sampled\/exact \([0-9.]*\) .*/\1/p')"
c="$(echo "$lines" | sed -n 's/.*churn overhead: churned\/fresh \([0-9.]*\)x.*/\1/p')"
[ -n "$m" ] && [ -n "$s" ] && [ -n "$p" ] && [ -n "$q" ] && [ -n "$c" ] \
    || { echo "overhead lines missing from micro bench" >&2; exit 1; }
awk -v m="$m" -v s="$s" -v p="$p" -v q="$q" -v c="$c" \
    'BEGIN { exit !(m <= 2.0 && s <= 2.0 && p <= 2.0 && q <= 0.25 && c <= 1.5) }' || {
    echo "overhead guard failed: disabled instrumentation/sampling/profiling above 2% of bare" \
        "($m/$s/$p%), sampled profiling above 0.25x exact (${q}x) or churned fabric" \
        "above 1.5x fresh (${c}x)" >&2
    exit 1
}

echo "==> verify OK"
