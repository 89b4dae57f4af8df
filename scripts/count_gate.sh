#!/usr/bin/env bash
# The repository benchmark's CI gate, run from the repository root:
#
#   scripts/count_gate.sh
#
# Runs every workload with `--quick --trace 1` at seed 1 and fails when
# - a `count`-unit metric of a simulated workload differs from `counts.quick`
#   of the newest BENCH_e2e.json row that carries counts (it prints the
#   workload, the counter and both values). A change that moves a count on
#   purpose appends a row with the new counts: `scripts/pairs.sh` writes one,
#   with N = 0 pairs for a change that claims no timing;
# - `codec`'s `gf_kernel=` is not the top rung /proc/cpuinfo's flags support;
# - `gf.mul_xor_mbps / gf.xor_mbps` is under a floor every rung clears (quick
#   runs on a 2-vCPU Xeon read gfni 1.20, avx2 0.85, ssse3 0.61, scalar 0.077),
#   so it needs no per-runner baseline.
set -euo pipefail

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for workload in repair20 fabric20 scale1000 campaign20 codec; do
    benchmark/target/release/chameleon-benchmark \
        --workload "$workload" --seed 1 --quick --trace 1 >"$out/$workload"
done

python3 - "$out" <<'PY'
import json, re, sys

FLOOR = 0.04
out = sys.argv[1]
text = lambda w: open(f"{out}/{w}").read()
metrics = lambda w: json.loads(text(w).splitlines()[-1])["metrics"]
row = next(r for r in reversed([json.loads(l) for l in open("BENCH_e2e.json")]) if "counts" in r)
fail, compared = [], 0
for workload in ("repair20", "fabric20", "scale1000", "campaign20"):
    old = row["counts"]["quick"].get(workload, {})
    new = {k: v["value"] for k, v in metrics(workload).items() if v["unit"] == "count"}
    compared += len(old.keys() | new.keys())
    fail += [f"{workload} {k}: {old.get(k)} -> {new.get(k)}"
             for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]

flags = re.search(r"^(flags|Features)\s*:(.*)$", open("/proc/cpuinfo").read(), re.M)
flags = set(flags.group(2).split()) if flags else set()
ladder = [("gfni", {"gfni", "avx512f", "avx512bw"}), ("avx2", {"avx2"}), ("ssse3", {"ssse3"}),
          ("neon", {"asimd"}), ("scalar", set())]
top = next(name for name, needs in ladder if needs <= flags)
kernel = re.search(r"gf_kernel=([^;]*);", text("codec")).group(1)
if kernel != top:
    fail.append(f"codec gf_kernel: {kernel}, but this CPU supports {top}")
gf = metrics("codec")
ratio = gf["gf.mul_xor_mbps"]["value"] / gf["gf.xor_mbps"]["value"]
if ratio < FLOOR:
    fail.append(f"codec gf.mul_xor_mbps / gf.xor_mbps: {ratio:.3f} < {FLOOR}")

for line in fail:
    print(f"count gate: FAIL {line}")
print(f"count gate: {'FAILED' if fail else 'ok'}: {compared} counts against the row of "
      f"{row['change_commit']}; gf_kernel={kernel} (top {top}), mul_xor/xor {ratio:.3f} (floor {FLOOR})")
sys.exit(1 if fail else 0)
PY
