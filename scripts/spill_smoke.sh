#!/usr/bin/env bash
# End-to-end smoke test of `ssjoin --mem-budget`: the out-of-core join
# must actually spill (>= 2 partitions under a tight budget), and under
# every budget its output must be byte-identical to the in-memory join on
# the same input, from the same candidate set.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${SSJOIN_BIN:-target/debug/ssjoin}
if [[ ! -x "$BIN" ]]; then
  cargo build -q -p ssj-cli --bin ssjoin
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# 2000 sets of 10 word tokens in 400 near-duplicate groups: members of a
# group share a 10-token core and later members append one extra token,
# so within-group jaccard is 10/11 >= 0.8 and the join output is dense
# enough to exercise every partition.
awk 'BEGIN {
  for (i = 0; i < 2000; i++) {
    base = i % 400
    line = ""
    for (t = 0; t < 10; t++) line = line " tok" (base * 6 + t)
    if (i >= 400) line = line " extra" i
    print substr(line, 2)
  }
}' > "$work/input.txt"

"$BIN" jaccard --input "$work/input.txt" --threshold 0.8 \
  --stats --output "$work/mem.txt" 2> "$work/mem_stats.txt"
mem_cands=$(grep -o 'candidates=[0-9]*' "$work/mem_stats.txt" | cut -d= -f2)

# 1m holds this input's 7,200 cost-model signatures in one partition;
# 512k is the tightest budget that fits the block, bitmap, and cache
# charges, and forces a second partition.
for budget in 1m 512k; do
  "$BIN" jaccard --input "$work/input.txt" --threshold 0.8 \
    --mem-budget "$budget" --stats --output "$work/ext.txt" 2> "$work/stats.txt"

  if ! cmp -s "$work/mem.txt" "$work/ext.txt"; then
    echo "spill_smoke: in-memory and --mem-budget $budget outputs differ"
    diff "$work/mem.txt" "$work/ext.txt" | head -20
    exit 1
  fi

  cands=$(grep -o 'candidates=[0-9]*' "$work/stats.txt" | cut -d= -f2)
  if [[ -z "$cands" || "$cands" != "$mem_cands" ]]; then
    echo "spill_smoke: --mem-budget $budget produced candidates=${cands:-none}," \
      "the in-memory join ${mem_cands:-none}"
    cat "$work/stats.txt"
    exit 1
  fi
done

parts=$(grep -o 'partitions=[0-9]*' "$work/stats.txt" | cut -d= -f2)
if [[ -z "$parts" || "$parts" -lt 2 ]]; then
  echo "spill_smoke: expected >= 2 partitions under a 512k budget, got '${parts:-none}'"
  cat "$work/stats.txt"
  exit 1
fi

pairs=$(wc -l < "$work/mem.txt")
if [[ "$pairs" -lt 1 ]]; then
  echo "spill_smoke: join produced no pairs; the workload is broken"
  exit 1
fi

echo "spill_smoke: OK ($pairs pairs, $mem_cands candidates, $parts partitions at 512k," \
  "outputs byte-identical)"
