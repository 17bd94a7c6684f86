#!/usr/bin/env bash
# Smoke test of the epoch ledger: every workload at one round each
# (`run --quick`, under a minute), then the traced pass on the cheapest
# workload, with the metric names and units of every result checked
# against BENCHMARK.json. CI-ready (exits non-zero on any failure) but
# not wired into .github/workflows/ci.yml, which is outside the
# benchmark's paths.
set -euo pipefail
cd "$(dirname "$0")/.."

ledger=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

check() { # <end_to_end|per_layer> ; harness output on stdin
    python3 -c '
import json, sys
manifest = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in manifest[sys.argv[1]]}
last = json.loads(sys.stdin.read().strip().splitlines()[-1])
results = last.get("workloads", {"": last})
if "workloads" in last:
    assert sorted(results) == sorted(w["name"] for w in manifest["workloads"]), sorted(results)
for name, got in results.items():
    assert got["correct"] is True and got["failed"] == 0, (name, got)
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    assert have == want, (name, sorted(set(want) ^ set(have)))
    assert all(v["value"] == v["value"] and abs(v["value"]) != float("inf") for v in got["metrics"].values())
' "$1"
}

"${ledger[@]}" run --quick --seed 17 | tee /dev/stderr | check end_to_end
"${ledger[@]}" run --quick --seed 17 --workload small-sim --trace 1 | tee /dev/stderr | check per_layer
echo "smoke: ok"
