#!/bin/sh
# explore_smoke.sh — end-to-end check for the coverage-guided scenario
# explorer, in three acts:
#
#   1. Run a pinned-seed exploration and require it to finish clean with
#      a digest.
#   2. Run the same spec checkpointed, SIGKILL it mid-flight, resume, and
#      require the resumed digest byte-identical to the reference — the
#      explorer inherits the campaign engine's durability contract.
#   3. Run the static faults campaign at the SAME run budget and seed and
#      require the explorer to cover STRICTLY more bins — the point of
#      mutation toward uncovered bins is that it beats a fixed matrix at
#      equal cost.
#
# Usage: scripts/explore_smoke.sh [path-to-castanet-binary]
# Without an argument the script builds the binary into a temp dir.
set -eu

GENERATIONS=4
POPULATION=8
SHARDS=4
SEED=11
BUDGET=$((GENERATIONS * POPULATION))

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ $# -ge 1 ]; then
    bin=$1
else
    bin="$tmp/castanet"
    go build -o "$bin" ./cmd/castanet
fi

# An exploration (or campaign) exits 1 when it recorded verification
# failures; the coverage comparison below is the verdict this smoke is
# about, so 1 is tolerated here and anything else is a harness error.
run_tool() {
    log=$1
    shift
    status=0
    "$bin" "$@" >"$tmp/$log" 2>&1 || status=$?
    if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
        echo "explore-smoke: castanet exited $status" >&2
        cat "$tmp/$log" >&2
        exit "$status"
    fi
}

echo "explore-smoke: reference exploration ($GENERATIONS generations x $POPULATION population, $SHARDS shards, seed $SEED)"
run_tool reference.log -explore -generations "$GENERATIONS" -population "$POPULATION" \
    -shards "$SHARDS" -seed "$SEED" -digest "$tmp/reference.digest"
grep '^explore covered=' "$tmp/reference.digest"

echo "explore-smoke: checkpointed exploration, SIGKILL mid-flight"
"$bin" -explore -generations "$GENERATIONS" -population "$POPULATION" \
    -shards "$SHARDS" -seed "$SEED" \
    -checkpoint "$tmp/explore.ckpt" -checkpoint-every 2 \
    >"$tmp/killed.log" 2>&1 &
pid=$!
# Kill as soon as the first checkpoint lands, so the kill hits mid-flight
# however fast the host is; stop waiting if the exploration ends first or
# after 30 s.
i=0
while [ ! -f "$tmp/explore.ckpt" ] && kill -0 "$pid" 2>/dev/null && [ "$i" -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
if kill -9 "$pid" 2>/dev/null; then
    echo "explore-smoke: killed pid $pid"
else
    # The exploration finished before the kill landed; the resume below
    # then just reproduces the result from the final state file.
    echo "explore-smoke: exploration finished before the kill (still fine)"
fi
wait "$pid" 2>/dev/null || true

echo "explore-smoke: resuming from checkpoint"
run_tool resumed.log -explore -generations "$GENERATIONS" -population "$POPULATION" \
    -shards "$SHARDS" -seed "$SEED" \
    -checkpoint "$tmp/explore.ckpt" -resume -digest "$tmp/resumed.digest"

if ! diff -u "$tmp/reference.digest" "$tmp/resumed.digest"; then
    echo "explore-smoke: FAIL — resumed digest differs from the uninterrupted reference" >&2
    exit 1
fi
echo "explore-smoke: resumed digest is byte-identical to the reference"

echo "explore-smoke: static faults campaign at the same budget ($BUDGET runs)"
run_tool baseline.log -campaign faults -runs "$BUDGET" -shards "$SHARDS" -seed "$SEED" \
    -coverage -digest "$tmp/baseline.digest"

explored=$(awk -F'[= ]' '/^explore covered=/ {print $3; exit}' "$tmp/reference.digest")
baseline=$(awk -F'[= ]' '/^cover group=/ {sum += $5} END {print sum + 0}' "$tmp/baseline.digest")
if [ -z "$explored" ]; then
    echo "explore-smoke: FAIL — no 'explore covered=' summary in the exploration digest" >&2
    exit 1
fi

echo "explore-smoke: explorer covered $explored bins, static matrix covered $baseline"
if [ "$explored" -le "$baseline" ]; then
    echo "explore-smoke: FAIL — exploration must cover strictly more bins than the static matrix at equal budget" >&2
    exit 1
fi
echo "explore-smoke: OK — coverage-guided exploration beats the static matrix ($explored > $baseline bins)"
