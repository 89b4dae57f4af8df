#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark's timed run.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD FIRST_SEED N [TRAJECTORY]
#
# PARENT and CHANGE are checkouts of this repository (each is built with its
# own benchmark/ package first). Pair i runs seed FIRST_SEED+i on both sides
# with `--seconds 16 --trace 0`; the parent goes first in even pairs, the
# change in odd ones. Only the result line (the last stdout line, one JSON
# object) is read.
#
# Prints one row per run, then for each end-to-end metric of CHANGE's
# BENCHMARK.json: each side's median and quartiles, the pairs the change won
# (ties count for neither), the parent's interquartile range, and whether a
# gain may be claimed: the change wins at least nine tenths of the pairs and
# its median is better than the parent's by more than the parent's IQR.
#
# With TRAJECTORY (a path), also appends one JSON line to that file: both
# sides' commits, the host (nproc, CPU model, rustc, GF kernel), the workload
# and seeds, and per end-to-end metric each side's median, quartiles and n,
# and the pairs the change won. The line also carries CHANGE's exact counts
# at seed 1: `counts.quick` holds every `count`-unit metric of a `--quick
# --trace 1` run of each simulated workload (what scripts/count_gate.sh
# compares with), `counts.full` those of WORKLOAD's own `--seconds 16 --trace
# 1` run (none for `codec`). With N = 0 no pair runs and the line holds the
# counts alone, for a change that claims no timing.
set -euo pipefail

if [ $# -ne 5 ] && [ $# -ne 6 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD FIRST_SEED N [TRAJECTORY]" >&2
    exit 2
fi
trajectory=${6:-}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first_seed=$4
pairs=$5
if [ "$pairs" -eq 0 ] && [ -z "$trajectory" ]; then
    echo "$0: N = 0 (counts only) needs a TRAJECTORY" >&2
    exit 2
fi

for dir in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

rows=$(mktemp)
hosts=$(mktemp)
counts=$(mktemp)
trap 'rm -f "$rows" "$hosts" "$counts"' EXIT

run() { # SIDE DIR PAIR SEED
    local out line
    out=$(cd "$2" && benchmark/target/release/chameleon-benchmark \
        --workload "$workload" --seed "$4" --seconds 16 --trace 0)
    line=$(tail -n 1 <<<"$out")
    # The run's host line: "# nproc=…; loadavg=…; gf_kernel=…; rustc=…; commit=…;"
    printf '%s\t%s\n' "$1" "$(grep -m 1 '^# nproc=' <<<"$out" || true)" >>"$hosts"
    printf '%s\t%s\t%s\t%s\n' "$3" "$4" "$1" "$line" >>"$rows"
    python3 -c 'import json, sys
pair, seed, side, line = sys.argv[1:5]
r = json.loads(line)
m = " ".join(k + "=" + format(v["value"], ".4g") for k, v in r["metrics"].items())
print("pair %2s  seed %3s  %-6s  %s  correct=%s failed=%s" % (pair, seed, side, m, r["correct"], r["failed"]))' \
        "$3" "$4" "$1" "$line"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$i" "$seed"
        run change "$change" "$i" "$seed"
    else
        run change "$change" "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    fi
done

count() { # KIND WORKLOAD ARGS...: one traced run of CHANGE at seed 1
    local out
    out=$(cd "$change" && benchmark/target/release/chameleon-benchmark \
        --workload "$2" --seed 1 --trace 1 "${@:3}")
    printf '%s\t%s\n' change "$(grep -m 1 '^# nproc=' <<<"$out" || true)" >>"$hosts"
    printf '%s\t%s\t%s\n' "$1" "$2" "$(tail -n 1 <<<"$out")" >>"$counts"
}
if [ -n "$trajectory" ]; then
    for w in repair20 fabric20 scale1000 campaign20; do
        count quick "$w" --quick
    done
    [ "$workload" = codec ] || count full "$workload" --seconds 16
fi

commit() { # DIR: HEAD, "+dirty" if the tree has changes, or "unknown"
    local head
    head=$(git -C "$1" rev-parse --short=12 HEAD 2>/dev/null) || { echo unknown; return; }
    [ -z "$(git -C "$1" status --porcelain 2>/dev/null)" ] || head="$head+dirty"
    echo "$head"
}
cpu=$(grep -m 1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' || true)
python3 - "$rows" "$change/BENCHMARK.json" "$hosts" "$trajectory" "$workload" "$first_seed" "$cpu" \
    "$(commit "$parent")" "$(commit "$change")" "$counts" <<'EOF'
import json, statistics, sys

rows = [line.rstrip("\n").split("\t", 3) for line in open(sys.argv[1])]
hosts = {}
for line in open(sys.argv[3]):
    side, _, fields = line.rstrip("\n").partition("\t")
    pairs_ = (f.strip().partition("=") for f in fields.lstrip("# ").split(";"))
    hosts.setdefault(side, {k: v for k, _, v in pairs_ if k})
trajectory, workload, first_seed, cpu, parent_commit, change_commit = sys.argv[4:10]
metrics = json.load(open(sys.argv[2]))["end_to_end"]
runs = {}
for pair, _seed, side, line in rows:
    runs.setdefault(int(pair), {})[side] = json.loads(line)["metrics"]
pairs = sorted(runs)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"\n{len(pairs)} pairs")
summary = {}
for m in metrics if pairs else []:
    name, lower = m["name"], m["better"] == "lower"
    p = [runs[i]["parent"][name]["value"] for i in pairs]
    c = [runs[i]["change"][name]["value"] for i in pairs]
    better = lambda a, b: a < b if lower else a > b
    wins = sum(better(y, x) for x, y in zip(p, c))
    losses = sum(better(x, y) for x, y in zip(p, c))
    (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
    pm, cm = statistics.median(p), statistics.median(c)
    iqr = pq3 - pq1
    gain = 10 * wins >= 9 * len(pairs) and better(cm, pm) and abs(cm - pm) > iqr
    side = lambda med, q1, q3: {"median": med, "q1": q1, "q3": q3, "n": len(pairs)}
    summary[name] = {
        "parent": side(pm, pq1, pq3),
        "change": side(cm, cq1, cq3),
        "change_wins": wins,
    }
    print(
        f"{name:<13} parent {pm:.4g} (q {pq1:.4g}-{pq3:.4g})  change {cm:.4g} "
        f"(q {cq1:.4g}-{cq3:.4g})  change {(cm - pm) / pm:+.1%}  wins {wins}/{len(pairs)} "
        f"(losses {losses})  parent IQR {iqr:.4g}  gain rule: {'holds' if gain else 'fails'}"
    )

if trajectory:
    counts = {"quick": {}, "full": {}}
    for line in open(sys.argv[10]):
        kind, name, result = line.rstrip("\n").split("\t", 2)
        values = json.loads(result)["metrics"].items()
        counts[kind][name] = {k: v["value"] for k, v in values if v["unit"] == "count"}
    host = hosts.get("change", {})
    record = {
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "host": {
            "nproc": host.get("nproc"),
            "cpu": cpu,
            "rustc": host.get("rustc"),
            "gf_kernel": host.get("gf_kernel"),
        },
        "workload": workload,
        "seeds": [int(first_seed), int(first_seed) + len(pairs) - 1] if pairs else [],
        "metrics": summary,
        "counts": counts,
    }
    with open(trajectory, "a") as out:
        out.write(json.dumps(record) + "\n")
    print(f"appended to {trajectory}")
EOF
