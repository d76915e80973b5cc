#!/usr/bin/env bash
# Service-daemon smoke test for CI: start ofdm_serverd, submit a
# campaign over the wire, kill -9 the daemon mid-run, restart it
# against the same state directory, and require (a) the job to be
# recovered and resumed from its OFDMCAMP checkpoint, (b) the fetched
# curves to be byte-identical to a direct ofdm_campaign run of the same
# deck, and (c) a resubmission of the same deck to be served from the
# result cache without executing a single new trial (asserted via the
# daemon's trials_executed counter). This exercises the whole
# fault-tolerant job lifecycle end to end: admission, persistence,
# hard-crash recovery, determinism across the resume cut, and the
# deck-digest cache.
#
# Usage: scripts/server_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
DAEMON="$BUILD_DIR/tools/ofdm_serverd"
CLIENT="$BUILD_DIR/tools/ofdm_client"
CLI="$BUILD_DIR/tools/ofdm_campaign"
TO="timeout 60"

for exe in "$DAEMON" "$CLIENT" "$CLI"; do
    if [[ ! -x "$exe" ]]; then
        echo "error: $exe not found -- build the repo first" >&2
        exit 1
    fi
done

WORK="$BUILD_DIR/server_smoke"
rm -rf "$WORK"
mkdir -p "$WORK/state"

DAEMON_PID=""
cleanup() {
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# Big enough to still be running when the kill lands, small enough to
# finish in seconds; rel_ci effectively disabled so the trial count --
# and therefore the curves -- are exactly reproducible.
cat > "$WORK/smoke.deck" <<'EOF'
name=server_smoke
standard=wlan_80211a@12
snr_db=2:4:14
channel=awgn
payload_bits=256
trials.min=512
trials.max=4096
trials.batch=32
stop.rel_ci=1e-9
seed=41
EOF

json_field() {  # json_field '"key":' <<< reply  -> bare value
    grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

start_daemon() {
    rm -f "$WORK/port"
    "$DAEMON" --port-file "$WORK/port" --state-dir "$WORK/state" \
        --executors 1 --threads 2 --quiet &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$WORK/port" ]] && break
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "error: daemon exited during startup" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ ! -s "$WORK/port" ]]; then
        echo "error: daemon never wrote its port file" >&2
        exit 1
    fi
    PORT="$(cat "$WORK/port")"
}

echo "== start daemon, submit deck =="
start_daemon
REPLY="$($TO "$CLIENT" submit --port "$PORT" --deck "$WORK/smoke.deck")"
ID="$(grep -o '"id":"[0-9a-f]*"' <<< "$REPLY" | head -1 | cut -d'"' -f4)"
if [[ -z "$ID" ]]; then
    echo "error: submit returned no job id: $REPLY" >&2
    exit 1
fi
echo "   job id $ID"

echo "== wait for >=2 rounds of progress, then kill -9 the daemon =="
ROUNDS=0
for _ in $(seq 1 300); do
    ST="$($TO "$CLIENT" status --port "$PORT" --id "$ID")"
    ROUNDS="$(json_field rounds <<< "$ST")"
    STATE="$(grep -o '"state":"[a-z]*"' <<< "$ST" | cut -d'"' -f4)"
    if [[ "$STATE" == "done" ]]; then
        echo "error: job finished before the kill could land --" \
             "enlarge the smoke deck" >&2
        exit 1
    fi
    [[ "${ROUNDS:-0}" -ge 2 ]] && break
    sleep 0.05
done
if [[ "${ROUNDS:-0}" -lt 2 ]]; then
    echo "error: job made no progress (state $STATE)" >&2
    exit 1
fi
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
if [[ ! -s "$WORK/state/$ID.deck" ]]; then
    echo "error: no persisted deck for $ID after the crash" >&2
    exit 1
fi
echo "   killed after $ROUNDS rounds; state dir holds" \
     "$(ls "$WORK/state" | tr '\n' ' ')"

echo "== restart against the same state dir: job must be recovered =="
start_daemon
RECOVERED="$($TO "$CLIENT" stats --port "$PORT" | json_field jobs_recovered)"
if [[ "${RECOVERED:-0}" -lt 1 ]]; then
    echo "error: restarted daemon recovered no jobs" >&2
    exit 1
fi

echo "== wait for completion, fetch curves =="
for _ in $(seq 1 1200); do
    ST="$($TO "$CLIENT" status --port "$PORT" --id "$ID")"
    STATE="$(grep -o '"state":"[a-z]*"' <<< "$ST" | cut -d'"' -f4)"
    [[ "$STATE" == "done" ]] && break
    if [[ "$STATE" != "queued" && "$STATE" != "running" ]]; then
        echo "error: recovered job ended '$STATE': $ST" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ "$STATE" != "done" ]]; then
    echo "error: recovered job never finished (state $STATE)" >&2
    exit 1
fi
$TO "$CLIENT" result --port "$PORT" --id "$ID" --out "$WORK/server" \
    > /dev/null

echo "== byte-compare against a direct ofdm_campaign run =="
timeout 300 "$CLI" "$WORK/smoke.deck" --threads 4 --out "$WORK/ref" --quiet
for ext in json csv; do
    if ! cmp -s "$WORK/ref.$ext" "$WORK/server.$ext"; then
        echo "error: server .$ext curves differ from the direct run" >&2
        diff "$WORK/ref.$ext" "$WORK/server.$ext" >&2 || true
        exit 1
    fi
done
echo "   curves byte-identical" \
     "($(wc -c < "$WORK/ref.json") bytes of curve JSON)"

echo "== cached resubmission must execute zero new trials =="
BEFORE="$($TO "$CLIENT" stats --port "$PORT" | json_field trials_executed)"
$TO "$CLIENT" submit --port "$PORT" --deck "$WORK/smoke.deck" --wait \
    --out "$WORK/cached" > /dev/null
AFTER="$($TO "$CLIENT" stats --port "$PORT" | json_field trials_executed)"
if [[ "$BEFORE" != "$AFTER" ]]; then
    echo "error: cached resubmission ran trials ($BEFORE -> $AFTER)" >&2
    exit 1
fi
if ! cmp -s "$WORK/ref.json" "$WORK/cached.json"; then
    echo "error: cached curves differ from the direct run" >&2
    exit 1
fi

echo "== streamed waveform samples match the pinned digests =="
# float32 (re,im) pairs, seed 5, digests recorded before the word-at-a-
# time scrambler, filler and DMT mapping: 2 drm@B bursts (40960
# samples, coded, phase reference), 1 adsl burst (36992 samples, DMT
# bit table, degree-23 scrambler) and 2 wlan_80211a@24 bursts (2242
# samples, coded, filler padding).
check_waveform() {  # check_waveform standard bursts sha256
    local out="$WORK/${1//[^a-z0-9]/_}.f32"
    $TO "$CLIENT" waveform --port "$PORT" --standard "$1" --bursts "$2" \
        --seed 5 --out "$out" > /dev/null
    local got
    got="$(sha256sum "$out" | cut -d' ' -f1)"
    if [[ "$got" != "$3" ]]; then
        echo "error: streamed $1 samples hash to $got, pinned $3" >&2
        exit 1
    fi
}
check_waveform drm@B 2 \
    dd778147906dc5ddd123527d94f76cbd5802bc8d929625079e3f0e8b5e746877
check_waveform adsl 1 \
    19fb331061b095245ac0c12ebb6da839cadf06c25faa8f938ee94360f60eb05a
check_waveform wlan_80211a@24 2 \
    9a910e523a2050d44740a85284bf81a7e1ff1ea22cb0254945f840e51fad5ccd

echo "== graceful shutdown =="
$TO "$CLIENT" shutdown --port "$PORT" > /dev/null
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "error: daemon ignored the shutdown op" >&2
    exit 1
fi
DAEMON_PID=""

echo "server smoke OK: crash recovery byte-identical, cache serves" \
     "resubmissions without recompute, streamed samples as pinned"
