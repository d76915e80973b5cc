#!/usr/bin/env bash
# Campaign-engine smoke test for CI: for each smoke deck, run it
# straight through, then again with a simulated mid-run kill
# (--halt-after-rounds, exit 3) followed by --resume at a different
# thread count, and require the two curve JSON/CSV outputs to be
# byte-identical. This exercises deck parsing, the work-stealing
# scheduler, checkpoint write/restore, and the determinism contract in
# one shot. The channel_sweep deck extends the same contract over the
# standard channel-model library (per-trial Watterson/TDL realizations)
# and, run once more with --trace, over tracing.
#
# Usage: scripts/campaign_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/ofdm_campaign"
# Hard ceiling per CLI invocation: a hung scheduler or a resume that
# spins forever should fail the smoke, not stall the CI job.
TO="timeout 120"

if [[ ! -x "$CLI" ]]; then
    echo "error: $CLI not found -- build the repo first" >&2
    exit 1
fi

run_deck() {
    local deck="$1"
    local name
    name="$(basename "$deck" .deck)"
    local work="$BUILD_DIR/campaign_smoke/$name"

    rm -rf "$work"
    mkdir -p "$work"

    echo "== [$name] straight-through run (4 threads) =="
    $TO "$CLI" "$deck" --threads 4 --out "$work/ref" --quiet

    echo "== [$name] interrupted run: halt after 2 rounds (1 thread) =="
    local rc=0
    $TO "$CLI" "$deck" --threads 1 --out "$work/halted" \
        --checkpoint "$work/ckpt.bin" --halt-after-rounds 2 --quiet || rc=$?
    if [[ "$rc" -ne 3 ]]; then
        echo "error: expected exit 3 from --halt-after-rounds, got $rc" >&2
        exit 1
    fi
    if [[ ! -s "$work/ckpt.bin" ]]; then
        echo "error: no checkpoint written by the halted run" >&2
        exit 1
    fi

    echo "== [$name] resume at a different thread count (2 threads) =="
    $TO "$CLI" "$deck" --threads 2 --out "$work/resumed" \
        --checkpoint "$work/ckpt.bin" --resume --quiet

    for ext in json csv; do
        if ! cmp -s "$work/ref.$ext" "$work/resumed.$ext"; then
            echo "error: [$name] resumed .$ext curves differ from the" \
                 "straight-through run" >&2
            diff "$work/ref.$ext" "$work/resumed.$ext" >&2 || true
            exit 1
        fi
    done

    echo "[$name] OK: resume output byte-identical" \
         "($(wc -c < "$work/ref.json") bytes of curve JSON)"
}

# Tracing must not perturb a run: the channel sweep again with --trace
# gives the straight-through curves byte for byte, and the trace names
# the channel blocks of the (already destroyed) per-trial chains.
trace_deck() {
    local work="$BUILD_DIR/campaign_smoke/channel_sweep"
    echo "== [channel_sweep] traced run (4 threads) =="
    $TO "$CLI" decks/channel_sweep.deck --threads 4 --out "$work/traced" \
        --trace "$work/trace.json" --quiet
    for ext in json csv; do
        if ! cmp -s "$work/ref.$ext" "$work/traced.$ext"; then
            echo "error: traced .$ext curves differ from the untraced run" >&2
            diff "$work/ref.$ext" "$work/traced.$ext" >&2 || true
            exit 1
        fi
    done
    for span in watterson awgn; do
        if ! grep -q "\"name\":\"$span\"" "$work/trace.json"; then
            echo "error: trace has no '$span' span" >&2
            exit 1
        fi
    done
    echo "[channel_sweep] OK: traced curves byte-identical," \
         "$(grep -c '"ph":"X"' "$work/trace.json") spans"
}

run_deck decks/ci_smoke.deck
run_deck decks/channel_sweep.deck
trace_deck
# The coded deck extends the contract over the rx= grid dimension: the
# full FEC receiver (soft LLR + soft Viterbi on WLAN, RS on ADSL+fec)
# and the pre-FEC uncoded tap in one sweep.
run_deck decks/coded_smoke.deck

echo "campaign smoke OK"
