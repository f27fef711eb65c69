#!/usr/bin/env bash
# Behaviour gate for kernel changes: perfbench's `digest` lines (run
# counters, Table rows, and the Prometheus and span hashes of the
# observed workload) at two seeds must equal the committed
# tests/golden/perfbench_digests.txt byte for byte. `--seconds 0` runs
# each workload once, so timing never enters the comparison (about 7 s
# per seed in release).
#
#   scripts/perfbench_digests.sh                  # diff against the fixture
#   UPDATE_GOLDEN=1 scripts/perfbench_digests.sh  # rewrite the fixture
#
# Rewrite the fixture only for a change that is meant to alter what is
# simulated, and say why in the commit.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=tests/golden/perfbench_digests.txt
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for seed in 20101108 7; do
  echo "# perfbench --workload all --seconds 0 --seed $seed"
  cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 0 --seed "$seed" | grep '^digest '
done > "$out"

if [ -n "${UPDATE_GOLDEN:-}" ]; then
  cp "$out" "$golden"
  echo "wrote $golden"
  exit 0
fi
if ! diff -u "$golden" "$out"; then
  echo "error: perfbench digests differ from $golden" >&2
  echo "regenerate with: UPDATE_GOLDEN=1 scripts/perfbench_digests.sh" >&2
  exit 1
fi
echo "perfbench digests match $golden"
