#!/usr/bin/env bash
# Local CI: the gate every PR must pass.
#
#   scripts/ci.sh            # full sweep
#   scripts/ci.sh --no-build # skip the release build (quick lint loop)
set -euo pipefail
# A failure inside $(…) fails the leg too; `expect` and `poll` take
# `!(…)` patterns.
shopt -s inherit_errexit extglob

cd "$(dirname "$0")/.."

build=1
for arg in "$@"; do
    case "$arg" in
        --no-build) build=0 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Each leg runs in its own subshell, so the EXIT trap `scratch` sets
# fires when that leg ends, however it ends.
run() {
    echo
    echo "==> $*"
    ("$@")
}

# scratch: gives the leg a temp dir $tmp, and one EXIT trap that kills
# every daemon `boot` recorded in $pids and removes $tmp.
pids=()
scratch() {
    tmp="$(mktemp -d)"
    trap 'kill -9 "${pids[@]}" 2>/dev/null || true; rm -rf "$tmp"' EXIT
}

# expect TEXT PATTERN MESSAGE: fails the leg with MESSAGE and TEXT unless
# TEXT matches the `case` pattern PATTERN.
expect() {
    case "$1" in
        $2) ;;
        *) printf '%s: %s\n' "$3" "$1" >&2; return 1 ;;
    esac
}

# ---------------------------------------------------------------- rules

# One row per rule, six fields: name, paths (files, or directories read
# recursively), scope, forbidden pattern, required pattern, reason.
# Without a scope a row reads every line under its paths as
# `path:line:text`. With one it reads the body of each item whose first
# line matches the scope (a sed regex: `^`, the item's indent, its
# signature) down to the first line that is that indent and `}`.
# Patterns are PCRE over that text as one record, so a pattern may span
# lines ((?m) makes ^ and $ match at lines). A row fails if it reads no
# text (a path or its scope is gone), if its forbidden pattern matches
# or if its required pattern does not. The rows that read scripts/
# bracket a letter of each word they forbid so as not to match
# themselves. A rule leaves the table once a test in the workspace suite
# fails on its regression: crates/core/tests/community_peak_heap.rs holds
# the co-occurrence graph's memory (no directed graph on the way to the
# symmetric one, CSR arrays sized once, one weight table), and the NaN
# tests of model::scan and core::influencers hold rank_order's total
# order.
RULES=(
    no_pair_hashing crates/graph/src/cooccurrence.rs '' 'HashMap' ''
    'count the co-occurrence graph row by row into a dense accumulator, not in a pair table'

    no_pair_hashing/transpose crates/graph/src/digraph.rs '^    pub fn transpose(' 'GraphBuilder' ''
    'transpose merges sorted rows; the edge-list builder stays off the co-occurrence path'

    no_pair_hashing/to_undirected crates/graph/src/digraph.rs '^    pub fn to_undirected(' 'GraphBuilder' ''
    'to_undirected merges sorted rows; the edge-list builder stays off the co-occurrence path'

    sweep_is_check_free/forward crates/embed/src/gradient.rs '^pub(crate) fn sweep_forward' 'in 0\.\.k\b' ''
    'zip the rows: an indexed topic loop bounds-checks every element and does not vectorise'

    sweep_is_check_free/backward crates/embed/src/gradient.rs '^pub(crate) fn sweep_backward' 'in 0\.\.k\b' ''
    'zip the rows: an indexed topic loop bounds-checks every element and does not vectorise'

    sweep_is_check_free/accumulate crates/embed/src/gradient.rs '^pub fn accumulate_gradients' 'in 0\.\.k\b' ''
    'zip the rows: an indexed topic loop bounds-checks every element and does not vectorise'

    sweep_is_check_free/epoch_loop crates/embed/src/pgd.rs '^pub fn optimize' \
    '(?m)^    while (?:(?!^    \})[\s\S])*copy_from_slice' ''
    'an accepted epoch swaps its buffers; no block copy inside the epoch loop'

    core_count_cached 'crates/model/src crates/serve/src' '' '(?m)^(?!.*get_or_init).*available_parallelism' ''
    'read the core count once with get_or_init: the standard library reads cgroup files on every call'

    slpa_votes_without_branches crates/community/src/slpa.rs '^    fn propagate<' \
    'gen_range' '\A(?:(?!\.sort)[\s\S])*>= max_w[\s\S]*\.sort'
    'draw with the module'"'"'s below, and sort only the labels tied at >= max_w'

    one_selection 'crates src tests' '' 'sort_and_truncate' ''
    'one selection: rank with viralcast_model::top_k'

    one_scan crates/model/src '' 'fn candidates\b|dot\(&h\b' ''
    'score rows in chunks with scan::score_rows and feed viralcast_model::top_k'

    one_yardstick 'crates src scripts README.md DESIGN.md' '' \
    'bench-[h]otpath|bench-[b]ackends|bench-[r]eplica|BENCH_[h]otpath|BENCH_[b]ackends|BENCH_[r]eplica|replica_[b]ench|hotpath:[:]' ''
    'measure with benchmark/ (viralbench), not an in-crate bench'

    one_kill_loop 'crates src scripts README.md DESIGN.md' '' \
    'run_[c]luster|spawn_[r]outer|spawn_[f]ollower|non_partial_[5]xx|degraded_[r]eads' ''
    'chaos kills one single-box daemon; cluster and follower kills belong to smoke_cluster'

    one_load_driver 'crates src scripts README.md DESIGN.md' '' \
    'load[g]en|gdelt::[s]cenario|Flash[C]rowd|End[p]oints|request_with_retry_[o]n|BENCH_[h]ttp' ''
    'measure with benchmark/ (viralbench), not a second load driver'

    one_rate_model 'crates src tests examples' '' \
    '(?m)EmbeddingRates|HazardFunction|struct Exponential|^[^:\n]*/hazard\.rs:' ''
    'the truth is an Embeddings and the simulator draws its delays inline'

    one_ownership_rule 'crates src' '' 'community_aligned|from_membership|rendezvous_order|Placement::' ''
    'shard I of N owns node v iff v mod N = I'

    libraries_hold_the_product 'crates/embed/src crates/predict/src' '' \
    '(?m)^[^:\n]*/(?:hogwild|pairwise|pointprocess)[^:\n]*:|mod +(?:hogwild|pairwise|pointprocess)' ''
    'the ablation baselines live with their harnesses in crates/bench'

    libraries_hold_the_product/criterion 'Cargo.toml .cargo/config.toml crates/*/Cargo.toml' '' 'criterion' ''
    'nothing outside benchmark/ names criterion'

    libraries_hold_the_product/prng crates '' 'XorShift' ''
    'draw from rand'"'"'s one seeded generator'

    one_objective 'crates src tests examples' '' \
    '(?m)censoring_window|CensorScratch|^crates/embed/src/censoring\.rs:' ''
    'pgd::optimize fits the L1-penalised eq. 8 alone'

    front_door_never_sleeps crates/serve/src/listener.rs '' 'set_nonblocking\(true\)|thread::sleep' ''
    'park in accept() and wait on serve::Shutdown'

    one_test_stack 'crates src tests Cargo.toml .cargo/config.toml' '' 'proptest::|proptest!|proptest *=' ''
    'write a property test as a seeded loop over rand'
)

# Runs every row of RULES and fails if any row does.
source_rules() {
    local i name paths scope forbid require reason text indent rc failed=0
    scratch
    for ((i = 0; i < ${#RULES[@]}; i += 6)); do
        name="${RULES[i]}" paths="${RULES[i + 1]}" scope="${RULES[i + 2]}"
        forbid="${RULES[i + 3]}" require="${RULES[i + 4]}" reason="${RULES[i + 5]}"
        # $paths is split and globbed on purpose; a missing path fails
        # grep and sed, which leaves the text empty.
        if [ -n "$scope" ]; then
            indent="${scope#^}"
            indent="${indent%%[! ]*}"
            text="$(sed -n "\\#$scope#,\\#^$indent}#p" $paths)" || text=""
        else
            text="$(grep -rnH '' -- $paths)" || text=""
        fi
        if [ -z "$text" ]; then
            echo "$name: ${scope:+the scope /$scope/ in }$paths selects no text" >&2
            failed=1
            continue
        fi
        if [ -n "$forbid" ]; then
            rc=0
            LC_ALL=C grep -Pzo -- "(?m)^.*(?:$forbid).*" <<<"$text" >"$tmp/hits" || rc=$?
            if [ "$rc" -ne 1 ]; then
                tr '\0' '\n' <"$tmp/hits" >&2
                echo "$name: /$forbid/ matches in $paths; $reason" >&2
                failed=1
            fi
        fi
        if [ -n "$require" ] && ! LC_ALL=C grep -Pzq -- "$require" <<<"$text"; then
            echo "$name: /$require/ is missing from $paths; $reason" >&2
            failed=1
        fi
    done
    [ "$failed" -eq 0 ] && echo "$((${#RULES[@]} / 6)) source rules OK"
}

# The docs describe the system as it stands, not its history: DESIGN.md
# stays within 650 lines and the verify notes within 200, and DESIGN.md
# §4, the experiment index, names every harness in crates/bench/src/bin/,
# so a rewrite cannot drop a figure without failing here.
doc_budget() {
    local doc limit lines index bin failed=0
    for doc in DESIGN.md:650 .claude/skills/verify/SKILL.md:200; do
        limit="${doc#*:}" doc="${doc%:*}"
        lines=$(wc -l <"$doc")
        if [ "$lines" -gt "$limit" ]; then
            echo "$doc is $lines lines, over its budget of $limit" >&2
            failed=1
        fi
    done
    index="$(sed -n '/^## 4\./,/^## 5\./p' DESIGN.md)"
    for bin in crates/bench/src/bin/*.rs; do
        bin="$(basename "$bin" .rs)"
        if ! grep -qw -- "$bin" <<<"$index"; then
            echo "DESIGN.md §4 does not name the harness $bin" >&2
            failed=1
        fi
    done
    [ "$failed" -eq 0 ] && echo "doc budget OK"
}

# Every `pub fn` under crates/ and src/ is called from some other file:
# its name appears as a word in another .rs file of the workspace or of
# benchmark/src. An item only its own file uses is private (or, if only
# its tests use it, test-only); one nobody calls is deleted. Only the
# file itself is left out of the search (by path, not by base name), and
# the match is by name, so a collision with a same-named item elsewhere
# can only hide a caller-less item from this leg, never flag one that
# has a caller.
every_pub_fn_has_a_caller() {
    local f n found=""
    for f in $(find crates src -name '*.rs' -path '*src*'); do
        for n in $(grep -oE 'pub fn [a-z_0-9]+' "$f" | awk '{print $3}' | sort -u); do
            grep -rlw --include='*.rs' "$n" crates src tests examples benchmark/src |
                grep -vxF "$f" >/dev/null || found+="$f $n"$'\n'
        done
    done
    if [ -n "$found" ]; then
        printf '%s' "$found" >&2
        echo "the pub fns above have no caller outside their own file; make each private, test-only, or delete it" >&2
        return 1
    fi
}

# The whole workspace suite in one command. Two tests fail on known
# program faults (see .claude/skills/verify/SKILL.md): the influencer
# ranking reads the gauge-dependent `‖A_u‖` (ROADMAP item 1), and the
# incremental refit, which re-detects communities on the new batch alone,
# does not raise that batch's likelihood (ROADMAP item 5). The leg passes
# iff every failing test is one of them.
workspace_tests() {
    local failed
    scratch
    cargo test --workspace --no-fail-fast >"$tmp/log" 2>&1 && return 0
    failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$tmp/log" | sort -u)
    if [ -n "$failed" ] && ! grep -vxF \
        -e 'pipeline::tests::incremental_update_improves_on_new_data' \
        -e 'influencer_ranking_recovers_boosted_nodes' <<<"$failed"; then
        echo "known baseline failures only:" $failed
        return 0
    fi
    # A compile error (no FAILED line at all) or a test outside the baseline.
    tail -n 60 "$tmp/log" >&2
    return 1
}

# Builds and unit-tests benchmark/ as is against the workspace sources,
# then performs one short traced run so the one yardstick is known to
# run against them, not only to compile. cargo must stand inside
# benchmark/, whose own .cargo/config.toml and Cargo.lock apply there.
# The bounds sit far above the measured values (CHANGES.md records them,
# under the changes that made the scan and the count what they are) and
# far below what the per-source scan with a full sort, or a pair table
# in the count, reads.
bench_contract() {
    local rank cooc edges
    (cd benchmark && cargo build --release --offline && cargo test --release --offline)
    scratch
    bash benchmark/run.sh --workload read_scan --seed 1 --seconds 2 --trace 1 --report "$tmp/report"
    layer() {
        grep -A1 "\"$1\"" "$tmp/report" | sed -n 's/.*"value": *\([0-9][0-9.e+-]*\).*/\1/p'
    }
    rank="$(layer model.rank_us)"
    if ! grep -q '"correct": *true' "$tmp/report" \
        || ! awk -v rank="$rank" 'BEGIN { exit !(rank != "" && rank + 0 < 5000) }'; then
        echo "read_scan is not correct, or model.rank_us (${rank:-missing}) is 5000 us or more" >&2
        return 1
    fi
    cooc="$(layer graph.cooccurrence_ms)"
    edges="$(layer graph.cooccurrence_edges)"
    if ! awk -v cooc="$cooc" 'BEGIN { exit !(cooc != "" && cooc + 0 < 300) }' \
        || ! grep -qxE '[1-9][0-9]*' <<<"$edges"; then
        echo "graph.cooccurrence_ms (${cooc:-missing}) is 300 ms or more, or graph.cooccurrence_edges (${edges:-missing}) is not a positive integer" >&2
        return 1
    fi
    # The router's merged answers against one box's: the memory figure is
    # the host's, so only the oracle is checked.
    bash benchmark/run.sh --workload cluster_read --seed 1 --seconds 2 --trace 0 --report "$tmp/cluster"
    if ! grep -q '"correct": *true' "$tmp/cluster"; then
        echo "cluster_read is not correct" >&2
        return 1
    fi
}

# --------------------------------------------------------------- daemons

READ='{"cascade":[{"node":0,"time":0.0}],"top":3}'

http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$2" >&3
    cat <&3
    exec 3>&- 3<&-
}

# http_post PORT PATH BODY [HEADER]: HEADER is one extra "Name: value"
# line, sent as is.
http_post() {
    local extra=""
    [ -n "${4:-}" ] && extra="$4"$'\r\n'
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf 'POST %s HTTP/1.1\r\nHost: smoke\r\nContent-Type: application/json\r\nContent-Length: %s\r\n%sConnection: close\r\n\r\n%s' \
        "$2" "${#3}" "$extra" "$3" >&3
    cat <&3
    exec 3>&- 3<&-
}

write_fixture() {
    printf '%s' '{"format":"viralcast-embeddings-v1","n":3,"k":2,"a":[0.5,0.1,0.2,0.6,0.3,0.3],"b":[0.4,0.2,0.1,0.5,0.2,0.4]}' >"$1"
}

# A tiny cascade corpus (JSON-lines, viralcast-cascades-v1) for the
# netinf backend to fit at boot.
write_corpus_fixture() {
    {
        printf '%s\n' '{"format":"viralcast-cascades-v1","node_count":3,"cascade_count":4}'
        printf '%s\n' '{"infections":[{"node":0,"time":0.0},{"node":1,"time":0.4},{"node":2,"time":0.9}]}'
        printf '%s\n' '{"infections":[{"node":1,"time":0.0},{"node":2,"time":0.3}]}'
        printf '%s\n' '{"infections":[{"node":0,"time":0.0},{"node":2,"time":0.5}]}'
        printf '%s\n' '{"infections":[{"node":2,"time":0.0},{"node":0,"time":0.7},{"node":1,"time":1.1}]}'
    } >"$1"
}

# boot NAME ARG...: starts the release `viralcast ARG...` with its log in
# $tmp/NAME.log, records its pid in $pid and $pids, and sets $port to
# the port it reports once /healthz there answers ok. Fails with the log
# if the daemon exits or is not healthy within 15 s. Call it from the
# leg's own shell, never inside $(…): the leg must be the daemon's parent.
boot() {
    local log="$tmp/$1.log"
    shift
    target/release/viralcast "$@" >"$log" 2>&1 &
    pid=$!
    pids+=("$pid")
    for _ in $(seq 1 150); do
        port="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$log")"
        if [ -n "$port" ]; then
            case "$(http_get "$port" /healthz 2>/dev/null || true)" in *'"status":"ok"'*) return 0 ;; esac
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "$log: the daemon never answered /healthz ok" >&2
    cat "$log" >&2
    return 1
}

# Sends 50 sequential /v1/predict reads to PORT, each tagged
# "X-Request-Id: smoke-<i>", and prints their total wall time in
# microseconds. Fails on the first answer that is not an HTTP 200.
read_burst() {
    local i started="${EPOCHREALTIME/[.,]/}"
    for i in $(seq 1 50); do
        expect "$(http_post "$1" /v1/predict "$READ" "X-Request-Id: smoke-$i")" \
            'HTTP/1.1 200*' "read smoke-$i did not answer 200"
    done
    echo $((${EPOCHREALTIME/[.,]/} - started))
}

# poll PORT GOOD BAD NEED MESSAGE: reads /v1/predict on PORT every 0.2 s,
# at most 25 times, until NEED answers match GOOD. An answer that matches
# BAD, or fewer than NEED good ones, fails the leg with MESSAGE.
poll() {
    local good=0 reply
    for _ in $(seq 1 25); do
        reply="$(http_post "$1" /v1/predict "$READ" 2>/dev/null || true)"
        expect "$reply" "!($3)" "$5"
        case "$reply" in $2) good=$((good + 1)) ;; esac
        [ "$good" -lt "$4" ] || return 0
        sleep 0.2
    done
    echo "$5: $good of $4 good answers" >&2
    return 1
}

# interrupt_within_2s PID...: SIGINTs the daemons and requires each to
# exit 0 within 2 s. The CLI checks the signal flag every 50 ms; behind
# it every loop waits on the one Shutdown flag, so no stop may sit out a
# poll or sleep interval. Every clean stop in this script goes through
# here.
interrupt_within_2s() {
    local pid waited
    kill -INT "$@"
    for pid in "$@"; do
        waited=0
        while kill -0 "$pid" 2>/dev/null; do
            if [ "$waited" -ge 40 ]; then
                echo "pid $pid is still running 2 s after SIGINT" >&2
                return 1
            fi
            sleep 0.05
            waited=$((waited + 1))
        done
        wait "$pid" # a clean shutdown exits 0; set -e fails the leg otherwise
    done
}

# Boots the released daemon against a tiny fixture model, scrapes
# /metrics and sends a 50-read burst, which must finish within 250 ms:
# an idle loopback read answers in ~0.1 ms, while an acceptor that polls
# every 10 ms costs at least 500 ms for 50. The access log must carry
# the burst's trace IDs.
smoke_serve() {
    local burst_us
    scratch
    write_fixture "$tmp/embeddings.json"
    boot serve serve --embeddings "$tmp/embeddings.json" --addr 127.0.0.1:0 \
        --workers 2 --access-log "$tmp/access.jsonl"
    expect "$(http_get "$port" /metrics)" '*serve_snapshot_version*' "/metrics is missing serve_snapshot_version"
    burst_us="$(read_burst "$port")"
    if [ "$burst_us" -gt 250000 ]; then
        echo "50 sequential reads took ${burst_us} us, over 250 ms: a poll is back in the request path" >&2
        return 1
    fi
    interrupt_within_2s "$pid"
    expect "$(cat "$tmp/access.jsonl")" '*"trace_id":"smoke-*' "the access log is missing the burst's trace IDs"
    echo "serve smoke test OK (port $port, 50 reads in ${burst_us} us)"
}

# The NETINF greedy backend, fit from a tiny corpus: /healthz and
# /metrics report the backend id, and all four /v1 endpoints answer.
smoke_backends() {
    scratch
    write_corpus_fixture "$tmp/corpus.jsonl"
    boot netinf serve --backend netinf --corpus "$tmp/corpus.jsonl" --addr 127.0.0.1:0 --workers 2
    expect "$(http_get "$port" /healthz)" '*"backend":"netinf"*' "/healthz does not report the netinf backend"
    expect "$(http_get "$port" /metrics)" '*viralcast_backend_info{backend="netinf"} 1*' \
        "/metrics is missing the viralcast_backend_info gauge"
    expect "$(http_post "$port" /v1/hazard '{"pairs":[[0,1]],"dt":1.0}')" \
        '*HTTP/1.1 200*"rate":*' "netinf /v1/hazard failed"
    expect "$(http_post "$port" /v1/predict "$READ")" '*HTTP/1.1 200*"candidates":*' "netinf /v1/predict failed"
    expect "$(http_get "$port" '/v1/influencers?top=3')" '*HTTP/1.1 200*"influencers":*' "netinf /v1/influencers failed"
    expect "$(http_post "$port" /v1/ingest '{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":0.6}]]}')" \
        '*HTTP/1.1 200*"accepted":1*' "netinf /v1/ingest failed"
    interrupt_within_2s "$pid"
    echo "backends smoke test OK (netinf serve on port $port)"
}

# Kill-loop resilience: `viralcast chaos` spawns a durable serve child,
# drives it with sequence-tagged ingests, SIGKILLs and restarts it three
# times, then replays the data dir and exits non-zero on any acked-event
# loss or 5xx-after-recovery. Its report must record the three kill
# cycles, zero missing records, zero 5xx after recovery, zero exhausted
# retry budgets (each respawn binds the first boot's address, so retries
# reach the restarted daemon) and a measured disrupted p99.
smoke_chaos() {
    local want
    scratch
    write_fixture "$tmp/embeddings.json"
    if ! target/release/viralcast chaos --embeddings "$tmp/embeddings.json" \
        --data-dir "$tmp/data" --workers 2 --cycles 3 --steady 1 \
        --recovery-timeout 30 --seed 7 --out "$tmp/BENCH_chaos.json"; then
        echo "chaos run failed (acked loss, 5xx after recovery, or a dead daemon)" >&2
        return 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool "$tmp/BENCH_chaos.json" >/dev/null
    fi
    for want in '"schema": *"viralcast-run-report/v1"' '"kill_cycles": *3\b' '"missing": *0\b' \
        '"post_recovery_5xx": *0\b' '"io_errors": *0\b' '"disrupted_p99_ms": *[0-9]' '"p99_degradation": *[0-9]'; do
        if ! grep -qE "$want" "$tmp/BENCH_chaos.json"; then
            echo "the chaos report does not match /$want/" >&2
            cat "$tmp/BENCH_chaos.json" >&2
            return 1
        fi
    done
    echo "chaos smoke test OK (3 kill cycles, zero acked loss)"
}

# Sharded cluster: a 2-shard manifest, two shard leaders, a follower of
# shard 0's leader on the port the manifest plans for it, and the router.
# The follower is caught up and refuses writes with a 409 to its leader;
# a 50-read burst through the router sees only 200s. After shard 0's
# leader is SIGKILLed, the router stays whole (3 answers with
# "partial":false) and the follower answers its own reads, never 5xx or
# partial. After shard 1, which has no follower, is SIGKILLed, the
# router degrades to "partial":true, never 5xx.
smoke_cluster() {
    local manifest port0 port1 fport rport pid0 pid1 fpid rpid
    scratch
    write_fixture "$tmp/embeddings.json"
    manifest="$tmp/manifest.json"
    # $RANDOM keeps reruns from colliding on the planned ports.
    port0=$((20000 + RANDOM % 20000))
    port1=$((port0 + 1))
    fport=$((port0 + 2))
    target/release/viralcast cluster-plan --out "$manifest" \
        --shards "127.0.0.1:$port0,127.0.0.1:$port1" --followers "127.0.0.1:$fport;"
    boot shard0 serve --embeddings "$tmp/embeddings.json" --workers 2 --shard 0/2 --cluster-manifest "$manifest"
    pid0=$pid
    boot shard1 serve --embeddings "$tmp/embeddings.json" --workers 2 --shard 1/2 --cluster-manifest "$manifest"
    pid1=$pid
    # No --addr: the follower binds the one address the manifest plans.
    boot follower serve --follow "127.0.0.1:$port0" --workers 2 --poll-interval 0.1 \
        --shard 0/2 --cluster-manifest "$manifest"
    fpid=$pid
    expect "$port" "$fport" "the follower did not bind its planned port"
    boot router router --cluster-manifest "$manifest" --addr 127.0.0.1:0 --probe-interval 0.2
    rport=$port rpid=$pid

    expect "$(http_get "$fport" /healthz)" '*"replica_lag_versions":0*' "follower /healthz is missing replica_lag_versions:0"
    expect "$(http_post "$fport" /v1/ingest '{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":0.5}]]}')" \
        "*HTTP/1.1 409*Location: http://127.0.0.1:$port0/v1/ingest*" "follower ingest did not 409-redirect to its leader"
    read_burst "$rport" >/dev/null

    kill -9 "$pid0"
    poll "$rport" 'HTTP/1.1 200*"partial":false*' '*HTTP/1.1 5*|*"partial":true*' 3 \
        "the router must answer whole while shard 0's follower is up"
    poll "$fport" '*HTTP/1.1 200*"candidates":*' '*HTTP/1.1 5*|*"partial":true*' 1 \
        "the follower must answer full reads after its leader died"
    kill -9 "$pid1"
    poll "$rport" '*"partial":true*' '*HTTP/1.1 5*' 1 "the router must answer partial, never 5xx, while shard 1 is down"

    interrupt_within_2s "$fpid" "$rpid"
    echo "cluster smoke test OK (router port $rport, follower port $fport survived its leader)"
}

# Nothing else CI runs drives viralcast_bench::{hogwild, pairwise,
# pointprocess} outside their unit tests: every ablation bin must run
# to completion on a small world, the racing Hogwild row (the one
# non-deterministic number in the tables) must report a finite LL, and
# both regulariser rows must report a finite held-out LL.
smoke_ablations() {
    local bin out
    for bin in ablation_strategies ablation_pairwise ablation_baselines ablation_regularizers; do
        if ! out="$(target/release/$bin --nodes 200 --cascades 200)"; then
            echo "$bin failed" >&2
            return 1
        fi
        if [ "$bin" = ablation_strategies ] \
            && ! grep -qE '^ +hogwild +[0-9.]+ +-?[0-9]+\.[0-9] ' <<<"$out"; then
            echo "ablation_strategies printed no hogwild row with a finite LL" >&2
            echo "$out" >&2
            return 1
        fi
        if [ "$bin" = ablation_regularizers ] \
            && [ "$(grep -cE '^ +(none \(paper eq\. 8\)|L1 = 5) .* -?[0-9]+\.[0-9]+$' <<<"$out")" -ne 2 ]; then
            echo "ablation_regularizers printed a non-finite held-out LL" >&2
            echo "$out" >&2
            return 1
        fi
    done
    echo "ablation smoke test OK (4 bins)"
}

# Nothing else CI runs drives the timing harnesses behind EXPERIMENTS.md's
# Figures 10, 11 and 13 (they time the optimiser alone): each must run
# to completion on its --quick sizes, fig10 and fig11 must each print
# their time table with a non-negative spread beside each best time,
# fig10 also Figure 13's speedup/efficiency table with every speedup
# equal to t1/tn of the seconds it printed, and where there are two CPUs
# fig10 must not flag its 2-core rows as oversubscribed.
smoke_timing_figures() {
    local out nodes
    if ! out="$(target/release/fig10_time_vs_cores --quick --max-cores 2)" \
        || ! nodes="$(target/release/fig11_time_vs_nodes --quick)"; then
        echo "a timing figure harness failed" >&2
        return 1
    fi
    if ! awk '/^ +nodes +cores +seconds +spread$/ { table = 1; next }
              table && NF == 4 && $2 ~ /^[0-9]+$/ { rows++; if ($4 !~ /^[0-9]+\.[0-9]+$/) bad++ }
              END { exit !(rows > 0 && !bad) }' <<<"$nodes"; then
        echo "fig11 printed no time table with a non-negative spread beside each time" >&2
        echo "$nodes" >&2
        return 1
    fi
    if ! awk '/^ +cascades +cores +seconds +spread$/ { table = "time"; next }
              /^ +cascades +cores +speedup +efficiency$/ { table = "speedup"; next }
              $2 !~ /^[0-9]+\*?$/ || NF != 4 { next }
              table == "time" { times++; t[$1, $2] = $3; if ($4 < 0) bad++ }
              table == "speedup" { rows++
                  want = sprintf("%.2f", t[$1, 1] / t[$1, $2])
                  if ($3 != want) bad++ }
              END { exit !(times > 0 && rows == times && !bad) }' <<<"$out"; then
        echo "fig10 printed no time table with spreads, or no speedup table matching its own times" >&2
        echo "$out" >&2
        return 1
    fi
    if [ "$(nproc)" -ge 2 ] && grep -E '^ +[0-9]+ +2\*' <<<"$out"; then
        echo "fig10 flags 2 cores as oversubscribed on a $(nproc)-CPU box" >&2
        return 1
    fi
    echo "timing figures smoke test OK (fig10 with Figure 13's table, fig11 with spreads)"
}

run source_rules
run doc_budget
run every_pub_fn_has_a_caller
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
if [ "$build" -eq 1 ]; then
    # --workspace: a root-package build compiles member *libs* but not the
    # `viralcast` bin the smoke tests drive.
    run cargo build --release --workspace
    # Examples are not part of --workspace's default targets; keep them
    # compiling (they are the README's executable documentation).
    run cargo build --release --examples
fi
run workspace_tests
if [ "$build" -eq 1 ]; then
    # viralbench is its own package and its sources may not change with
    # the code they measure, so an API break against it would otherwise
    # surface only when the benchmark pipeline runs.
    run bench_contract
    run smoke_serve
    run smoke_backends
    run smoke_chaos
    run smoke_cluster
    run smoke_ablations
    run smoke_timing_figures
fi

echo
echo "CI OK"
