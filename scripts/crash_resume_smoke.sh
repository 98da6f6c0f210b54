#!/bin/sh
# crash_resume_smoke.sh — end-to-end durability check for the campaign
# engine: run a reference campaign, run the same campaign checkpointed and
# SIGKILL it mid-flight, resume from the checkpoint, and require the
# resumed digest to be byte-identical to the uninterrupted reference.
#
# Usage: scripts/crash_resume_smoke.sh [path-to-castanet-binary]
# Without an argument the script builds the binary into a temp dir.
set -eu

CAMPAIGN="faults"
RUNS=80
SHARDS=4
SEED=11

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ $# -ge 1 ]; then
    bin=$1
else
    bin="$tmp/castanet"
    go build -o "$bin" ./cmd/castanet
fi

# A campaign exits 1 when it recorded failures; that is a verification
# verdict, not a harness error, and the digest comparison below covers it.
run_campaign() {
    status=0
    "$bin" -campaign "$CAMPAIGN" -runs "$RUNS" -shards "$SHARDS" -seed "$SEED" "$@" \
        >"$tmp/out.log" 2>&1 || status=$?
    if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
        echo "crash-resume-smoke: campaign exited $status" >&2
        cat "$tmp/out.log" >&2
        exit "$status"
    fi
}

echo "crash-resume-smoke: reference run ($CAMPAIGN, $RUNS runs, $SHARDS shards)"
run_campaign -digest "$tmp/reference.digest"

echo "crash-resume-smoke: checkpointed run, SIGKILL mid-flight"
"$bin" -campaign "$CAMPAIGN" -runs "$RUNS" -shards "$SHARDS" -seed "$SEED" \
    -checkpoint "$tmp/campaign.ckpt" -checkpoint-every 4 \
    >"$tmp/killed.log" 2>&1 &
pid=$!
# Kill as soon as the first checkpoint lands, so the kill hits mid-flight
# however fast the host is; stop waiting if the campaign ends first or
# after 30 s.
i=0
while [ ! -f "$tmp/campaign.ckpt" ] && kill -0 "$pid" 2>/dev/null && [ "$i" -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
if kill -9 "$pid" 2>/dev/null; then
    echo "crash-resume-smoke: killed pid $pid"
else
    # The campaign finished before the kill landed; the resume below then
    # just reproduces the summary from the final checkpoint.
    echo "crash-resume-smoke: campaign finished before the kill (still fine)"
fi
wait "$pid" 2>/dev/null || true

if [ ! -f "$tmp/campaign.ckpt" ]; then
    # Killed before the first periodic checkpoint: resume degrades to a
    # fresh run, which must still match the reference.
    echo "crash-resume-smoke: no checkpoint written before the kill (resume runs fresh)"
fi

echo "crash-resume-smoke: resuming from checkpoint"
run_campaign -checkpoint "$tmp/campaign.ckpt" -resume -digest "$tmp/resumed.digest"

if ! diff -u "$tmp/reference.digest" "$tmp/resumed.digest"; then
    echo "crash-resume-smoke: FAIL — resumed digest differs from the uninterrupted reference" >&2
    exit 1
fi
echo "crash-resume-smoke: OK — resumed digest is byte-identical to the reference"
