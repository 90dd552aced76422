#!/usr/bin/env bash
# Local CI: the gate every PR must pass.
#
#   scripts/ci.sh            # full sweep
#   scripts/ci.sh --no-build # skip the release build (quick lint loop)
set -euo pipefail

cd "$(dirname "$0")/.."

build=1
for arg in "$@"; do
    case "$arg" in
        --no-build) build=0 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Each leg runs in a subshell: a leg's `trap … RETURN` clean-up would
# otherwise fire again when `run` itself returns, with the leg's locals
# out of scope (an unbound-variable exit under `set -u`).
run() {
    echo
    echo "==> $*"
    ("$@")
}

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

# Sends 50 sequential /v1/predict reads to PORT, each tagged
# "X-Request-Id: smoke-<i>", and prints their total wall time in
# microseconds. Fails on the first answer that is not an HTTP 200.
read_burst() {
    local i reply started
    started="${EPOCHREALTIME/[.,]/}"
    for i in $(seq 1 50); do
        reply="$(http_post "$1" /v1/predict '{"cascade":[{"node":0,"time":0.0}],"top":3}' \
            "X-Request-Id: smoke-$i")"
        case "$reply" in
            'HTTP/1.1 200'*) ;;
            *)
                echo "read smoke-$i did not answer 200: $reply" >&2
                return 1
                ;;
        esac
    done
    echo $(( ${EPOCHREALTIME/[.,]/} - started ))
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

# Polls the daemon's log for the ephemeral port it reports on stdout;
# prints the port, or nothing on timeout.
await_port() {
    local port=""
    for _ in $(seq 1 100); do
        port="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$1")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    printf '%s' "$port"
}

# Polls /healthz until it answers ok; prints the last response.
await_health() {
    local health=""
    for _ in $(seq 1 50); do
        health="$(http_get "$1" /healthz 2>/dev/null || true)"
        case "$health" in *'"status":"ok"'*) break ;; esac
        sleep 0.1
    done
    printf '%s' "$health"
}

# SIGINTs the given daemons and requires each to exit 0 within 2 s. The
# CLI checks the signal flag every 50 ms; behind it every loop waits on
# the one Shutdown flag, so no stop may sit out a poll or sleep interval.
interrupt_within_2s() {
    local pid waited
    kill -INT "$@"
    for pid in "$@"; do
        waited=0
        while kill -0 "$pid" 2>/dev/null; do
            if [ "$waited" -ge 40 ]; then
                echo "pid $pid is still running 2 s after SIGINT" >&2
                kill -9 "$pid" 2>/dev/null || true
                return 1
            fi
            sleep 0.05
            waited=$((waited + 1))
        done
        wait "$pid" # a clean shutdown exits 0; set -e fails the sweep otherwise
    done
}

# Boots the released daemon against a tiny fixture model on a random
# port, polls /healthz, scrapes /metrics, sends a 50-read burst, and
# asserts a clean SIGINT shutdown (exit 0) within 2 s. The burst must
# finish within 250 ms: an idle loopback read answers in ~0.1 ms, while
# an acceptor that polls every 10 ms costs at least 500 ms for 50. The
# access log must carry the burst's trace IDs.
smoke_serve() {
    local tmp fixture log pid port health metrics burst_us
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    fixture="$tmp/embeddings.json"
    log="$tmp/serve.log"
    write_fixture "$fixture"

    target/release/viralcast serve --embeddings "$fixture" \
        --addr 127.0.0.1:0 --workers 2 \
        --access-log "$tmp/access.jsonl" >"$log" 2>&1 &
    pid=$!

    port="$(await_port "$log")"
    if [ -z "$port" ]; then
        echo "daemon never reported its port" >&2
        cat "$log" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi

    health="$(await_health "$port")"
    case "$health" in
        *'"status":"ok"'*) ;;
        *)
            echo "healthz never became ok" >&2
            cat "$log" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac

    metrics="$(http_get "$port" /metrics)"
    case "$metrics" in
        *serve_snapshot_version*) ;;
        *)
            echo "/metrics is missing serve_snapshot_version" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac

    if ! burst_us="$(read_burst "$port")"; then
        kill "$pid" 2>/dev/null || true
        return 1
    fi
    if [ "$burst_us" -gt 250000 ]; then
        echo "50 sequential reads took ${burst_us} us, over 250 ms: a poll is back in the request path" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi

    interrupt_within_2s "$pid"
    if ! grep -q '"trace_id":"smoke-' "$tmp/access.jsonl"; then
        echo "access log is missing the burst's trace IDs" >&2
        head "$tmp/access.jsonl" >&2
        return 1
    fi
    echo "serve smoke test OK (port $port, 50 reads in ${burst_us} us)"
}

# Kill-loop resilience: `viralcast chaos` spawns a durable serve child,
# drives it with sequence-tagged ingests, SIGKILLs and restarts it three
# times, then replays the data dir and exits non-zero on any acked-event
# loss or 5xx-after-recovery. The leg additionally requires the report
# to exist, parse, and record the full kill-cycle count with zero loss,
# no exhausted retry budget (each respawn binds the first boot's
# address, so retries reach the restarted daemon) and a measured
# disrupted p99.
smoke_chaos() {
    local tmp fixture bench
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    fixture="$tmp/embeddings.json"
    bench="$tmp/BENCH_chaos.json"
    write_fixture "$fixture"

    if ! target/release/viralcast chaos --embeddings "$fixture" \
        --data-dir "$tmp/data" --workers 2 --cycles 3 --steady 1 \
        --recovery-timeout 30 --seed 7 --out "$bench"; then
        echo "chaos run failed (acked loss, 5xx after recovery, or a dead daemon)" >&2
        [ -s "$bench" ] && cat "$bench" >&2
        return 1
    fi

    if [ ! -s "$bench" ]; then
        echo "chaos produced no $bench" >&2
        return 1
    fi
    # Parse strictly when a JSON parser is around; schema-grep otherwise.
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool "$bench" >/dev/null
    fi
    if ! grep -q '"schema": *"viralcast-run-report/v1"' "$bench"; then
        echo "BENCH_chaos.json is missing the run-report schema" >&2
        cat "$bench" >&2
        return 1
    fi
    if ! grep -q '"kill_cycles": *3\b' "$bench"; then
        echo "chaos completed fewer than 3 kill cycles" >&2
        cat "$bench" >&2
        return 1
    fi
    if ! grep -q '"missing": *0\b' "$bench"; then
        echo "chaos recovered fewer records than were acked" >&2
        cat "$bench" >&2
        return 1
    fi
    if ! grep -q '"post_recovery_5xx": *0\b' "$bench"; then
        echo "chaos observed 5xx responses after recovery" >&2
        cat "$bench" >&2
        return 1
    fi
    if ! grep -q '"io_errors": *0\b' "$bench"; then
        echo "chaos requests exhausted their retries (did a respawn move the port?)" >&2
        cat "$bench" >&2
        return 1
    fi
    if ! grep -qE '"disrupted_p99_ms": *[0-9]' "$bench" \
        || ! grep -qE '"p99_degradation": *[0-9]' "$bench"; then
        echo "chaos measured no disrupted p99 or p99 degradation" >&2
        cat "$bench" >&2
        return 1
    fi
    echo "chaos smoke test OK (3 kill cycles, zero acked loss)"
}

# Backend abstraction smoke: boot the released daemon with the NETINF
# greedy backend fit from a tiny corpus, require /healthz and /metrics
# to report the backend id, hit all four /v1 endpoints, and exit
# cleanly on SIGINT.
smoke_backends() {
    local tmp corpus log pid port reply
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    corpus="$tmp/corpus.jsonl"
    log="$tmp/serve.log"
    write_corpus_fixture "$corpus"

    target/release/viralcast serve --backend netinf --corpus "$corpus" \
        --addr 127.0.0.1:0 --workers 2 >"$log" 2>&1 &
    pid=$!

    port="$(await_port "$log")"
    if [ -z "$port" ] || ! await_health "$port" | grep -q '"status":"ok"'; then
        echo "netinf daemon never became healthy" >&2
        cat "$log" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi
    if ! http_get "$port" /healthz | grep -q '"backend":"netinf"'; then
        echo "/healthz does not report the netinf backend" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi
    if ! http_get "$port" /metrics | grep -q 'viralcast_backend_info{backend="netinf"} 1'; then
        echo "/metrics is missing the viralcast_backend_info gauge" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi

    reply="$(http_post "$port" /v1/hazard '{"pairs":[[0,1]],"dt":1.0}')"
    case "$reply" in
        *'HTTP/1.1 200'*'"rate":'*) ;;
        *)
            echo "netinf /v1/hazard failed: $reply" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac
    reply="$(http_post "$port" /v1/predict '{"cascade":[{"node":0,"time":0.0}],"top":3}')"
    case "$reply" in
        *'HTTP/1.1 200'*'"candidates":'*) ;;
        *)
            echo "netinf /v1/predict failed: $reply" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac
    reply="$(http_get "$port" '/v1/influencers?top=3')"
    case "$reply" in
        *'HTTP/1.1 200'*'"influencers":'*) ;;
        *)
            echo "netinf /v1/influencers failed: $reply" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac
    reply="$(http_post "$port" /v1/ingest '{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":0.6}]]}')"
    case "$reply" in
        *'HTTP/1.1 200'*'"accepted":1'*) ;;
        *)
            echo "netinf /v1/ingest failed: $reply" >&2
            kill "$pid" 2>/dev/null || true
            return 1
            ;;
    esac

    kill -INT "$pid"
    wait "$pid" # a clean shutdown exits 0; set -e fails the sweep otherwise

    echo "backends smoke test OK (netinf serve on port $port)"
}

# Sharded-cluster smoke: a 2-shard round-robin manifest, two shard
# daemons, a snapshot-replica follower of shard 0's leader, and the
# scatter-gather router in front. A 50-read burst through the router
# must see zero 5xx. After SIGKILLing shard 0's leader, its follower
# must mask the outage: every read stays HTTP 200 with "partial":false
# (at least 3 of them). After SIGKILLing shard 1, which has no
# follower, the router must keep answering /v1/predict with HTTP 200
# and "partial":true — any 5xx during either outage fails the leg.
smoke_cluster() {
    local tmp fixture manifest port0 port1 fport rport pid0 pid1 fpid rpid reply full partial
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    fixture="$tmp/embeddings.json"
    manifest="$tmp/cluster-manifest.json"
    write_fixture "$fixture"

    # The manifest names fixed shard and follower ports up front;
    # $RANDOM keeps reruns from colliding.
    port0=$((20000 + RANDOM % 20000))
    port1=$((port0 + 1))
    fport=$((port0 + 2))
    if ! target/release/viralcast cluster-plan --out "$manifest" \
        --shards "127.0.0.1:$port0,127.0.0.1:$port1" \
        --followers "127.0.0.1:$fport;"; then
        echo "cluster-plan failed" >&2
        return 1
    fi

    target/release/viralcast serve --embeddings "$fixture" --workers 2 \
        --shard 0/2 --cluster-manifest "$manifest" >"$tmp/shard0.log" 2>&1 &
    pid0=$!
    target/release/viralcast serve --embeddings "$fixture" --workers 2 \
        --shard 1/2 --cluster-manifest "$manifest" >"$tmp/shard1.log" 2>&1 &
    pid1=$!
    # The follower's boot fetch needs a live leader.
    if ! await_health "$port0" | grep -q '"status":"ok"'; then
        echo "shard 0 never became healthy" >&2
        cat "$tmp/shard0.log" >&2
        kill "$pid0" "$pid1" 2>/dev/null || true
        return 1
    fi
    # No --addr: the follower binds the one address the manifest plans
    # for shard 0's follower.
    target/release/viralcast serve --follow "127.0.0.1:$port0" \
        --workers 2 --poll-interval 0.1 \
        --shard 0/2 --cluster-manifest "$manifest" >"$tmp/follower.log" 2>&1 &
    fpid=$!
    target/release/viralcast router --cluster-manifest "$manifest" \
        --addr 127.0.0.1:0 --probe-interval 0.2 >"$tmp/router.log" 2>&1 &
    rpid=$!

    rport="$(await_port "$tmp/router.log")"
    # The router reports "ok" only once its prober has seen every site
    # healthy, so one await covers the whole cluster.
    if [ -z "$rport" ] || ! await_health "$rport" | grep -q '"status":"ok"'; then
        echo "cluster never became healthy" >&2
        cat "$tmp/router.log" "$tmp/shard0.log" "$tmp/shard1.log" "$tmp/follower.log" >&2
        kill "$pid0" "$pid1" "$fpid" "$rpid" 2>/dev/null || true
        return 1
    fi

    if ! read_burst "$rport" >/dev/null; then
        echo "router failed a read under healthy-cluster load" >&2
        kill "$pid0" "$pid1" "$fpid" "$rpid" 2>/dev/null || true
        return 1
    fi

    # Shard 0's leader dies hard; its follower must keep reads whole.
    kill -9 "$pid0"
    full=0
    for _ in $(seq 1 25); do
        reply="$(http_post "$rport" /v1/predict \
            '{"cascade":[{"node":0,"time":0.0}],"top":3}' 2>/dev/null || true)"
        case "$reply" in
            *'HTTP/1.1 5'*|*'"partial":true'*)
                echo "router answered 5xx or partial while shard 0's follower was up" >&2
                echo "$reply" >&2
                kill "$pid1" "$fpid" "$rpid" 2>/dev/null || true
                return 1
                ;;
            'HTTP/1.1 200'*'"partial":false'*)
                full=$((full + 1))
                [ "$full" -ge 3 ] && break
                ;;
        esac
        sleep 0.2
    done
    if [ "$full" -lt 3 ]; then
        echo "router served $full full answer(s) after shard 0's leader died (need 3)" >&2
        cat "$tmp/router.log" "$tmp/follower.log" >&2
        kill "$pid1" "$fpid" "$rpid" 2>/dev/null || true
        return 1
    fi

    # Shard 1 has no follower; the router must degrade, not fail.
    kill -9 "$pid1"
    partial=0
    for _ in $(seq 1 25); do
        reply="$(http_post "$rport" /v1/predict \
            '{"cascade":[{"node":0,"time":0.0}],"top":3}' 2>/dev/null || true)"
        case "$reply" in
            *'HTTP/1.1 5'*)
                echo "router answered 5xx while a shard was down" >&2
                echo "$reply" >&2
                kill "$fpid" "$rpid" 2>/dev/null || true
                return 1
                ;;
            *'"partial":true'*) partial=1; break ;;
        esac
        sleep 0.2
    done
    if [ "$partial" -ne 1 ]; then
        echo "router never served a partial response during the outage" >&2
        cat "$tmp/router.log" >&2
        kill "$fpid" "$rpid" 2>/dev/null || true
        return 1
    fi

    interrupt_within_2s "$fpid" "$rpid"
    echo "cluster smoke test OK (router port $rport, $full full answers via the follower, partial answer after shard kill)"
}

# Replication smoke: a leader and one `serve --follow` follower. The
# follower must boot from the leader's snapshot stream, refuse writes
# with a 409 leader redirect, and — after the leader is SIGKILLed —
# keep answering reads with non-partial HTTP 200s from its replicated
# model.
smoke_replica() {
    local tmp fixture lport fport lpid fpid reply ok
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    fixture="$tmp/embeddings.json"
    write_fixture "$fixture"

    target/release/viralcast serve --embeddings "$fixture" \
        --addr 127.0.0.1:0 --workers 2 >"$tmp/leader.log" 2>&1 &
    lpid=$!
    lport="$(await_port "$tmp/leader.log")"
    if [ -z "$lport" ] || ! await_health "$lport" | grep -q '"status":"ok"'; then
        echo "leader never became healthy" >&2
        cat "$tmp/leader.log" >&2
        kill "$lpid" 2>/dev/null || true
        return 1
    fi

    target/release/viralcast serve --follow "127.0.0.1:$lport" \
        --addr 127.0.0.1:0 --workers 2 --poll-interval 0.1 \
        >"$tmp/follower.log" 2>&1 &
    fpid=$!
    fport="$(await_port "$tmp/follower.log")"
    if [ -z "$fport" ] || ! await_health "$fport" | grep -q '"status":"ok"'; then
        echo "follower never became healthy" >&2
        cat "$tmp/follower.log" "$tmp/leader.log" >&2
        kill "$lpid" "$fpid" 2>/dev/null || true
        return 1
    fi
    # A healthy, caught-up follower reports its lag.
    if ! http_get "$fport" /healthz | grep -q '"replica_lag_versions":0'; then
        echo "follower /healthz is missing replica_lag_versions:0" >&2
        http_get "$fport" /healthz >&2 || true
        kill "$lpid" "$fpid" 2>/dev/null || true
        return 1
    fi

    # Writes are refused with a redirect to the leader, never accepted.
    reply="$(http_post "$fport" /v1/ingest \
        '{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":0.5}]]}')"
    case "$reply" in
        *'HTTP/1.1 409'*"Location: http://127.0.0.1:$lport/v1/ingest"*) ;;
        *)
            echo "follower ingest did not 409-redirect to the leader: $reply" >&2
            kill "$lpid" "$fpid" 2>/dev/null || true
            return 1
            ;;
    esac

    # The leader dies hard; the follower keeps serving reads.
    kill -9 "$lpid"
    ok=0
    for _ in $(seq 1 25); do
        reply="$(http_post "$fport" /v1/predict \
            '{"cascade":[{"node":0,"time":0.0}],"top":3}' 2>/dev/null || true)"
        case "$reply" in
            *'HTTP/1.1 5'*)
                echo "follower answered 5xx after the leader died" >&2
                echo "$reply" >&2
                kill "$fpid" 2>/dev/null || true
                return 1
                ;;
            *'"partial":true'*)
                echo "follower served a partial read after the leader died" >&2
                echo "$reply" >&2
                kill "$fpid" 2>/dev/null || true
                return 1
                ;;
            *'HTTP/1.1 200'*'"candidates":'*) ok=1; break ;;
        esac
        sleep 0.2
    done
    if [ "$ok" -ne 1 ]; then
        echo "follower never served a full read after the leader died" >&2
        cat "$tmp/follower.log" >&2
        kill "$fpid" 2>/dev/null || true
        return 1
    fi

    kill -INT "$fpid"
    wait "$fpid" # a clean shutdown exits 0; set -e fails the sweep otherwise
    echo "replica smoke test OK (leader port $lport, follower port $fport survived the kill)"
}

# Builds and unit-tests benchmark/ as is against the workspace sources,
# then performs one short traced run so the one yardstick is known to
# run against them, not only to compile. cargo must stand inside
# benchmark/, whose own .cargo/config.toml and Cargo.lock apply there.
bench_contract() {
    (cd benchmark && cargo build --release --offline && cargo test --release --offline)
    local report rank cooc edges
    report="$(mktemp)"
    trap 'rm -f "$report"' RETURN
    bash benchmark/run.sh --workload read_scan --seed 1 --seconds 2 --trace 1 --report "$report"
    layer() {
        grep -A1 "\"$1\"" "$report" | sed -n 's/.*"value": *\([0-9][0-9.e+-]*\).*/\1/p'
    }
    # The scan sums the infected set once, scores rows four abreast in
    # fixed chunks, keeps a bounded top-k and scores the second half of
    # the 60000x16 model's rows on one helper thread when a core is free:
    # ~365 us (287-396 over seeds 41-45 on 2 vCPUs, 431 on seed 1;
    # sequential, 440-650). Scoring every candidate against every source
    # and sorting them all reads ~30000.
    rank="$(layer model.rank_us)"
    if ! grep -q '"correct": *true' "$report" \
        || ! awk -v rank="$rank" 'BEGIN { exit !(rank != "" && rank + 0 < 5000) }'; then
        echo "read_scan is not correct, or model.rank_us (${rank:-missing}) is 5000 us or more" >&2
        return 1
    fi
    # The co-occurrence graph of the 2000-node fit is counted row by row:
    # ~70-100 ms. Hashing every ordered pair reads 1200-1800.
    cooc="$(layer graph.cooccurrence_ms)"
    edges="$(layer graph.cooccurrence_edges)"
    if ! awk -v cooc="$cooc" 'BEGIN { exit !(cooc != "" && cooc + 0 < 300) }' \
        || ! grep -qxE '[1-9][0-9]*' <<<"$edges"; then
        echo "graph.cooccurrence_ms (${cooc:-missing}) is 300 ms or more, or graph.cooccurrence_edges (${edges:-missing}) is not a positive integer" >&2
        return 1
    fi
}

# The co-occurrence graph is counted row by row into a dense accumulator
# and symmetrised by merging sorted rows; fail if a pair table or the
# edge-list builder comes back into those paths. The bracket keeps this
# script from matching itself.
no_pair_hashing() {
    if grep -n 'Hash[M]ap' crates/graph/src/cooccurrence.rs \
        || sed -n -e '/pub fn transpose/,/^    }/p' -e '/pub fn to_undirected/,/^    }/p' \
            crates/graph/src/digraph.rs | grep -n 'Graph[B]uilder'; then
        echo "the pair table or the edge-list builder is back in the co-occurrence path; count by source row and merge sorted rows" >&2
        return 1
    fi
}

# The co-occurrence count sizes its CSR arrays in a first pass and fills
# them in a second; fail if the count core leaves targets or weight ids
# to grow from an empty Vec (every trainer drain then leaves a trail of
# doubled-and-freed blocks in the heap). The bracket keeps this script
# from matching itself.
cooccurrence_sized_once() {
    local body
    body="$(sed -n '/    fn count</,/^    }/p' crates/graph/src/cooccurrence.rs)"
    if [ -z "$body" ] \
        || grep -nE '(targets|weight_ids)[^=]*= Vec::[n]ew\(\)' <<<"$body"; then
        echo "CooccurrenceGraph::count is gone or grows its CSR arrays from Vec::new(); count each row's survivors first and allocate them at that length" >&2
        return 1
    fi
}

# DiGraph stores each distinct weight once and each edge as a target plus
# a u32 id into that table (8 bytes an entry, not 12); fail if a per-edge
# f64 array comes back to the struct or to from_sorted_rows, the
# constructor every graph goes through.
one_weight_table() {
    local fields signature
    fields="$(sed -n '/^pub struct DiGraph {/,/^}/p' crates/graph/src/digraph.rs)"
    signature="$(sed -n '/fn from_sorted_rows(/,/) -> DiGraph/p' crates/graph/src/digraph.rs)"
    if [ -z "$fields" ] || [ -z "$signature" ] \
        || ! grep -q 'weight_ids: Vec<u32>' <<<"$fields" \
        || ! grep -q 'weight_ids: Vec<u32>' <<<"$signature" \
        || printf '%s\n%s\n' "$fields" "$signature" | grep -v 'weight_values' | grep -n 'Vec<f64>'; then
        echo "DiGraph or from_sorted_rows carries a weight per edge again; store weight_ids: Vec<u32> into the one weight_values table" >&2
        return 1
    fi
}

# Community detection counts the symmetrised co-occurrence graph in one
# pass (CooccurrenceGraph::build_undirected); fail if detect_communities
# goes missing or builds the directed graph and its undirected view again.
communities_skip_the_directed_graph() {
    local body
    body="$(sed -n '/^pub fn detect_communities/,/^}/p' crates/embed/src/refit.rs)"
    if [ -z "$body" ] \
        || grep -nE 'CooccurrenceGraph::build\(|\.undirected\(\)' <<<"$body"; then
        echo "detect_communities is gone from embed/src/refit.rs or builds the directed co-occurrence graph again; count the symmetric graph with build_undirected" >&2
        return 1
    fi
}

# Algorithm 1's sweep is one zipped pass per direction — a forward half
# (LL, dB, denominators) and a backward half (dA), composed by
# accumulate_gradients — and an accepted epoch swaps its buffers; fail
# if a half goes missing, an indexed topic loop comes back into the
# sweep (a bounds check per element, nothing vectorises) or a block copy
# into optimize's epoch loop. The brackets keep this script from
# matching itself.
sweep_is_check_free() {
    local forward backward
    forward="$(sed -n '/^pub(crate) fn sweep_[f]orward/,/^}/p' crates/embed/src/gradient.rs)"
    backward="$(sed -n '/^pub(crate) fn sweep_[b]ackward/,/^}/p' crates/embed/src/gradient.rs)"
    if [ -z "$forward" ] || [ -z "$backward" ] \
        || { sed -n '/^pub fn accumulate_gradients/,/^}/p' crates/embed/src/gradient.rs \
            && printf '%s\n%s\n' "$forward" "$backward"; } | grep -n 'in 0\.\.[k]\b' \
        || sed -n '/^pub fn optimize/,/^}/p' crates/embed/src/pgd.rs \
            | sed -n '/^    while /,/^    }/p' | grep -n 'copy_from_[s]lice'; then
        echo "a sweep half is gone, an indexed topic loop is back in the gradient sweep, or a block copy in optimize's epoch loop; zip the rows and swap the buffers" >&2
        return 1
    fi
}

# The scan reads the core count once into a OnceLock: the standard
# library reads cgroup files on every call (~18 us on 2 vCPUs), which a per-scan
# call would pay on every request. Fail if the model or serve crates ask
# on a line without get_or_init. The bracket keeps this script from
# matching itself.
core_count_cached() {
    if grep -rn 'available_[p]arallelism' crates/model/src crates/serve/src | grep -v 'get_or_init'; then
        echo "the core count is asked outside a OnceLock in crates/model or crates/serve; read it once with get_or_init" >&2
        return 1
    fi
}

# SLPA's vote adds every utterance to a tally that is zero between
# listeners, sorts only the labels tied for the most weight, and draws
# through the module's own division-free `below`; fail if Slpa::run calls
# gen_range again or sorts before the tie filter (`>= max_w`). The
# brackets keep this script from matching itself.
slpa_votes_without_branches() {
    local body sorted tied
    body="$(sed -n '/^    pub fn run(/,/^    }/p' crates/community/src/slpa.rs)"
    sorted="$(grep -n '\.[s]ort' <<<"$body" | head -n 1 | cut -d: -f1)"
    tied="$(grep -n '>= max_[w]' <<<"$body" | head -n 1 | cut -d: -f1)"
    if [ -z "$body" ] || grep -n 'gen_[r]ange' <<<"$body" \
        || [ -z "$sorted" ] || [ -z "$tied" ] || [ "$sorted" -lt "$tied" ]; then
        echo "Slpa::run is gone, draws through gen_range, or sorts every heard label before keeping the ties; draw with below and sort the ties alone" >&2
        return 1
    fi
}

# One selection (viralcast_model::top_k) under one comparator
# (rank_order); fail if the collect-everything-and-sort helper or a
# panicking float comparison comes back into a ranking path. The bracket
# keeps this script from matching itself.
one_selection() {
    if grep -rn 'sort_and_[t]runcate' crates/ src/ tests/ \
        || grep -rn 'partial_[c]mp(' crates/model/src crates/core/src/influencers.rs; then
        echo "a second selection or an unwrap-on-NaN comparison reappeared; rank with viralcast_model::top_k / rank_order" >&2
        return 1
    fi
}

# The predict scan scores rows a fixed chunk at a time through
# scan::score_rows (a shard only its own rows) and runs the infected
# filter only on rows that beat the selection's floor; fail if the
# per-row candidate cursor or a per-row dot product against H comes
# back. The brackets keep this script from matching itself.
one_scan() {
    if grep -rnE 'fn candidate[s]\b|dot\(&[h]\b' crates/model/src; then
        echo "a per-row candidate scan is back in crates/model/src; score rows in chunks with scan::score_rows and feed viralcast_model::top_k" >&2
        return 1
    fi
}

# viralbench replaced the three in-crate synthetic benches; fail if a
# subcommand, report name or module of theirs comes back. The bracket
# in each alternative keeps this script from matching itself.
one_yardstick() {
    if grep -rnE 'bench-[h]otpath|bench-[b]ackends|bench-[r]eplica|BENCH_[h]otpath|BENCH_[b]ackends|BENCH_[r]eplica|replica_[b]ench|hotpath:[:]' \
        crates/ src/ scripts/ README.md DESIGN.md; then
        echo "an in-crate bench reappeared; measure with benchmark/ (viralbench) instead" >&2
        return 1
    fi
}

# One kill loop: `chaos` SIGKILLs one single-box daemon. Cluster and
# follower SIGKILLs are smoke_cluster's and smoke_replica's, and the
# union replay across shard logs is an in-process cluster test. Fail if
# the cluster kill loop, its spawners or its report fields come back.
# The bracket in each alternative keeps this script from matching itself.
one_kill_loop() {
    if grep -rnE 'run_[c]luster|spawn_[r]outer|spawn_[f]ollower|non_partial_[5]xx|degraded_[r]eads' \
        crates/ src/ scripts/ README.md DESIGN.md; then
        echo "a second kill loop reappeared; cluster kills belong to smoke_cluster" >&2
        return 1
    fi
}

# One rate model: an `Embeddings` is both a world's planted truth and the
# fit, and the simulator draws exponential delays inline. Fail if the
# truth-only matrix type, the one-impl hazard trait, its exponential
# struct or its module comes back. The bracket in each alternative keeps
# this script from matching itself.
one_rate_model() {
    if grep -rnE 'Embedding[R]ates|Hazard[F]unction|struct [E]xponential' \
        crates/ src/ tests/ examples/ \
        || find crates/ src/ tests/ examples/ -name 'hazar[d].rs' | grep .; then
        echo "a second rate model reappeared; the truth is an Embeddings and delays are drawn inline" >&2
        return 1
    fi
}

# One load driver: viralbench (benchmark/). Fail if the second closed-loop
# driver, its scenario generator, its report or the client's endpoint
# rotation comes back. The bracket in each alternative keeps this script
# from matching itself.
one_load_driver() {
    if grep -rnE 'load[g]en|gdelt::[s]cenario|Flash[C]rowd|End[p]oints|request_with_retry_[o]n|BENCH_[h]ttp' \
        crates/ src/ scripts/ README.md DESIGN.md; then
        echo "a second load driver reappeared; measure with benchmark/ (viralbench) instead" >&2
        return 1
    fi
}

# One ownership rule: shard I of N owns node v iff v mod N = I, for the
# rows it scans and the ingests seeded at v. Fail if community-aligned
# placement, a membership row block, rendezvous ingest hashing or the
# placement enum comes back. The bracket in each alternative keeps this
# script from matching itself.
one_ownership_rule() {
    if grep -rnE 'community_[a]ligned|from_[m]embership|rendezvous_[o]rder|Placement[:]:' \
        crates/ src/; then
        echo "a second shard-ownership rule reappeared; shard I of N owns node v iff v mod N = I" >&2
        return 1
    fi
}

# A library crate holds what the pipeline and the daemon run: the
# baselines the paper argues against live with the ablation harnesses in
# crates/bench, nothing outside benchmark/ names criterion, and core
# draws from rand's one seeded generator. The bracket in each pattern
# keeps this script from matching itself.
libraries_hold_the_product() {
    if find crates/embed/src crates/predict/src \
        \( -name 'hog[w]ild*' -o -name 'pair[w]ise*' -o -name 'point[p]rocess*' \) | grep . \
        || grep -rnE 'mod +(hog[w]ild|pair[w]ise|point[p]rocess)' crates/embed/src crates/predict/src \
        || grep -n 'criter[i]on' Cargo.toml .cargo/config.toml crates/*/Cargo.toml \
        || grep -rn 'Xor[S]hift' crates/; then
        echo "an ablation baseline is back in embed/predict, criterion is back in a manifest, or core hand-rolls a PRNG again" >&2
        return 1
    fi
}

# The epoch loop optimises one objective, the L1-penalised eq. 8; fail
# if the right-censoring term, its config field or its scratch comes
# back. The brackets keep this script from matching itself.
one_objective() {
    if [ -e crates/embed/src/censoring.rs ] \
        || grep -rnE 'censoring_[w]indow|Censor[S]cratch' crates/ src/ tests/ examples/; then
        echo "a second objective is back in the epoch loop; pgd::optimize fits the L1-penalised eq. 8 alone" >&2
        return 1
    fi
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
# to completion on its --quick sizes (fig13 reuses fig10's measurements),
# and where there are two CPUs fig10 must not flag its 2-core rows as
# oversubscribed.
smoke_timing_figures() {
    local out
    if ! out="$(target/release/fig10_time_vs_cores --quick --max-cores 2)" \
        || ! target/release/fig13_speedup --quick >/dev/null \
        || ! target/release/fig11_time_vs_nodes --quick >/dev/null; then
        echo "a timing figure harness failed" >&2
        return 1
    fi
    if [ "$(nproc)" -ge 2 ] && grep -E '^ +[0-9]+ +2\*' <<<"$out"; then
        echo "fig10 flags 2 cores as oversubscribed on a $(nproc)-CPU box" >&2
        return 1
    fi
    echo "timing figures smoke test OK (fig10, fig13, fig11 --quick)"
}

# The acceptor parks in accept() and every wait in the listener is on
# the Shutdown flag; fail if the parts of a poll loop come back.
front_door_never_sleeps() {
    if grep -nE 'set_nonblocking\(true\)|thread::sleep' crates/serve/src/listener.rs; then
        echo "the front door polls or sleeps again; park in accept() and wait on serve::Shutdown" >&2
        return 1
    fi
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

# Property tests are seeded loops over `rand` (DESIGN §9); fail if a use
# of the second idiom's crate comes back (the `mod proptests` module
# names stay).
one_test_stack() {
    if grep -rnE '[p]roptest::|[p]roptest!|[p]roptest *=' \
        crates/ src/ tests/ Cargo.toml .cargo/config.toml; then
        echo "the proptest crate reappeared; write the property as a seeded loop" >&2
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
    local log failed
    log=$(mktemp)
    if cargo test --workspace --no-fail-fast >"$log" 2>&1; then
        rm -f "$log"
        return 0
    fi
    failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | sort -u)
    if [ -n "$failed" ] && ! grep -vxF \
        -e 'pipeline::tests::incremental_update_improves_on_new_data' \
        -e 'influencer_ranking_recovers_boosted_nodes' <<<"$failed"; then
        echo "known baseline failures only:" $failed
        rm -f "$log"
        return 0
    fi
    # A compile error (no FAILED line at all) or a test outside the baseline.
    tail -n 60 "$log" >&2
    rm -f "$log"
    return 1
}

run one_yardstick
run one_kill_loop
run one_load_driver
run one_test_stack
run one_selection
run one_scan
run one_ownership_rule
run one_rate_model
run no_pair_hashing
run cooccurrence_sized_once
run one_weight_table
run communities_skip_the_directed_graph
run sweep_is_check_free
run core_count_cached
run slpa_votes_without_branches
run front_door_never_sleeps
run libraries_hold_the_product
run one_objective
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
    run smoke_replica
    run smoke_ablations
    run smoke_timing_figures
fi

echo
echo "CI OK"
