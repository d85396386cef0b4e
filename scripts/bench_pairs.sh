#!/usr/bin/env bash
# Paired before/after measurement with the repo's benchmark
# (choosing-metrics §8): the parent revision and this checkout run
# BENCHMARK.json's command in turn, the side that goes first alternating,
# a fresh seed per pair, and each end-to-end metric is reported as both
# sides' q1 / median / q3, the ratio of the medians, and the pairs the
# change won. Run it on an otherwise idle box: with 2 vCPUs a concurrent
# build reads as a regression.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [pairs.json]
#
# With a fourth argument the same numbers — every run's metrics, then the
# summary rows of the table — are also written to that path as JSON, the
# machine-readable record a PR commits under results/.
#
# Each run also records the share of the box's CPU time the hypervisor
# stole while it ran (the `steal` column of /proc/stat, read before and
# after the run); the range per side is printed under the table. A shared
# VM's slow spells show up there, so a second table repeats the first over
# only the pairs in which neither run's steal exceeded 10 %, with the count
# of pairs it dropped. The all-pairs table stays the record. Beside it go the run's CPU seconds
# (user + sys) and voluntary context switches (`ru_nvcsw`: how often a
# thread gave up its CPU to wait, so how often a worker parked), both of
# the benchmark command and its children, setup included; each is printed
# per side as a range and as the median per epoch. A change that moves
# when an idle worker works or parks shows up there even where the
# wall-clock metrics do not move.
#
# The parent is exported with `git archive` into a temporary directory
# (under $TMPDIR), not a `git worktree`: the benchmark is specified on a
# plain checkout, and nothing is left registered in .git. This script
# reads BENCHMARK.json; it writes nothing inside the repository except
# the change side's usual build output and the file it was asked for.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,33p' "$0"
  exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
json_out=${4:-}

# Each side builds into the target directory of its own checkout.
unset CARGO_TARGET_DIR

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

mapfile -t command < <(python3 -c '
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# One run: prints the benchmark's result line (its last line of stdout)
# and writes "<cpu seconds> <voluntary context switches>" of the command
# and its children to $work/usage. A run with a failed operation exits
# non-zero and still reports.
run_side() { # <dir> <seed> <seconds>
  python3 -c '
import resource, subprocess, sys
subprocess.call(sys.argv[3:], cwd=sys.argv[2])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "w") as out:
    out.write(f"{usage.ru_utime + usage.ru_stime:.3f} {usage.ru_nvcsw}\n")
' "$work/usage" "$1" "${command[@]}" --workload "$workload" --seed "$2" --seconds "$3" --trace 0 | tail -n 1
}

echo "building and priming both sides" >&2
run_side "$work/parent" 1 1 >/dev/null
run_side "$PWD" 1 1 >/dev/null

# Prints the steal and total jiffies of /proc/stat's aggregate cpu line
# (user through steal; guest time is already inside user and nice).
cpu_ticks() {
  awk '/^cpu /{t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t}' /proc/stat
}

# Seeds no earlier session can have tuned against.
base=$(($(date +%s) % 1000000))
: >"$work/runs.jsonl"
for i in $(seq 1 "$pairs"); do
  seed=$((base + i))
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$work/parent; else dir=$PWD; fi
    read -r steal0 total0 < <(cpu_ticks)
    result=$(run_side "$dir" "$seed" "$seconds")
    read -r steal1 total1 < <(cpu_ticks)
    steal=$(awk -v s=$((steal1 - steal0)) -v t=$((total1 - total0)) 'BEGIN {printf "%.4f", (t > 0 ? s / t : 0)}')
    read -r cpu_s nvcsw <"$work/usage"
    echo "pair $i seed $seed $side (steal $steal, cpu ${cpu_s}s, nvcsw $nvcsw): $result" >&2
    printf '{"pair": %d, "seed": %d, "side": "%s", "steal": %s, "cpu_s": %s, "nvcsw": %s, "result": %s}\n' "$i" "$seed" "$side" "$steal" "$cpu_s" "$nvcsw" "${result:-null}" >>"$work/runs.jsonl"
  done
done

change_rev=$(git describe --always --dirty)
python3 - "$work/runs.jsonl" "$parent_rev" "$workload" "$base" "$change_rev" "$json_out" <<'EOF'
import json, statistics, sys

runs_path, parent_rev, workload = sys.argv[1:4]
base = int(sys.argv[4])
change_rev, json_out = sys.argv[5:7]
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(runs_path)]
pairs = max(run["pair"] for run in runs)
sides = {side: {run["pair"]: run["result"] for run in runs if run["side"] == side}
         for side in ("parent", "change")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

print(f"`{workload}`: {pairs} pairs, parent `{parent_rev}` vs this checkout, "
      f"`--seconds {spec['run_seconds']} --trace 0`, seeds {base + 1}..{base + pairs}")

def table(kept):
    """Prints the metric table over the pairs in `kept`; returns its rows."""
    print()
    print("| metric | parent q1 / median / q3 | change q1 / median / q3 | change ÷ parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    rows = []
    for metric in spec["end_to_end"]:
        row = metric_row(metric, kept)
        if row:
            rows.append(row)
    return rows

def metric_row(metric, kept):
    name, lower = metric["name"], metric["better"] == "lower"
    column = {}
    for side, results in sides.items():
        column[side] = {pair: result["metrics"][name]["value"]
                        for pair, result in results.items()
                        if pair in kept and result and name in result.get("metrics", {})}
    both = sorted(set(column["parent"]) & set(column["change"]))
    if not both:
        print(f"| `{name}` | no complete pair | | | | |")
        return None
    parent = quartiles([column["parent"][pair] for pair in both])
    change = quartiles([column["change"][pair] for pair in both])
    sign = -1 if lower else 1
    won = sum(sign * (column["change"][pair] - column["parent"][pair]) > 0 for pair in both)
    gain = sign * (change[1] - parent[1])
    if gain < -metric["bound"] * parent[1]:
        verdict = f"WORSE than the {metric['bound']:.0%} bound"
    elif parent[2] - parent[0] > metric["bound"] * parent[1]:
        verdict = "unresolved: parent spread exceeds the bound"
    elif won * 10 >= len(both) * 9 and gain > parent[2] - parent[0]:
        verdict = "gain (>= 9/10 pairs, medians apart by more than the parent's IQR)"
    else:
        verdict = "within bound"
    cells = [" / ".join(f"{v:.6g}" for v in side) for side in (parent, change)]
    print(f"| `{name}` [{metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%}] "
          f"| {cells[0]} | {cells[1]} | {change[1] / parent[1]:.3f} | {won} / {len(both)} | {verdict} |")
    return {"metric": name, "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "pairs": len(both), "won": won,
            "parent": dict(zip(("q1", "median", "q3"), parent)),
            "change": dict(zip(("q1", "median", "q3"), change)),
            "ratio": change[1] / parent[1], "verdict": verdict}

STEAL_LIMIT = 0.10
summary = table(set(range(1, pairs + 1)))
steal_of = {(run["pair"], run["side"]): run["steal"] for run in runs}
quiet = {pair for pair in range(1, pairs + 1)
         if all(steal_of.get((pair, side), 1.0) <= STEAL_LIMIT for side in ("parent", "change"))}
print()
print(f"The same over the {len(quiet)} pairs in which neither run's steal exceeded "
      f"{STEAL_LIMIT:.0%} ({pairs - len(quiet)} of {pairs} pairs dropped; the table above is the record):")
summary_quiet = table(quiet) if quiet else []
print()
steal = {}
for side in ("parent", "change"):
    shares = [run["steal"] for run in runs if run["side"] == side]
    steal[side] = {"min": min(shares), "max": max(shares)}
    print(f"{side}: CPU steal {min(shares):.1%} to {max(shares):.1%} of box time per run")
def usage(key, what, unit):
    by_side = {}
    for side, results in sides.items():
        values = [run[key] for run in runs if run["side"] == side]
        per_epoch = [run[key] / (result["metrics"]["epochs_per_s"]["value"] * spec["run_seconds"])
                     for run in runs if run["side"] == side
                     for result in [results.get(run["pair"])]
                     if result and result.get("metrics", {}).get("epochs_per_s", {}).get("value")]
        by_side[side] = {"min": min(values), "max": max(values),
                         "median_per_epoch": statistics.median(per_epoch) if per_epoch else None}
        per_epoch_text = f"{by_side[side]['median_per_epoch']:.4g}{unit}" if per_epoch else "n/a"
        print(f"{side}: {min(values):.6g} to {max(values):.6g} {what} per run, "
              f"median {per_epoch_text} per epoch")
    return by_side
cpu = usage("cpu_s", "CPU seconds", " s")
nvcsw = usage("nvcsw", "voluntary context switches", "")
operations = {}
for side, results in sides.items():
    done = [result for result in results.values() if result]
    operations[side] = {"failed": sum(r["failed"] for r in done),
                        "attempted": sum(r["attempted"] for r in done),
                        "output_checks_failed": sum(not r["correct"] for r in done),
                        "runs_without_result": len(results) - len(done), "runs": len(results)}
    print("{side}: {failed} of {attempted} operations failed, {output_checks_failed} output checks failed, "
          "{runs_without_result} of {runs} runs printed no result".format(side=side, **operations[side]))
if json_out:
    rows = [{"pair": run["pair"], "seed": run["seed"], "side": run["side"], "steal": run["steal"],
             "cpu_s": run["cpu_s"], "nvcsw": run["nvcsw"],
             **({key: run["result"][key] for key in ("attempted", "failed", "correct")} if run["result"] else {}),
             "metrics": {name: m["value"] for name, m in (run["result"] or {}).get("metrics", {}).items()}}
            for run in runs]
    with open(json_out, "w") as out:
        json.dump({"workload": workload, "parent": parent_rev, "change": change_rev,
                   "command": spec["command"], "seconds": spec["run_seconds"], "trace": 0,
                   "pairs": pairs, "runs": rows, "summary": summary,
                   "summary_low_steal": {"steal_limit": STEAL_LIMIT, "pairs_dropped": pairs - len(quiet),
                                         "rows": summary_quiet},
                   "steal": steal, "cpu": cpu, "nvcsw": nvcsw,
                   "operations": operations},
                  out, indent=1)
        out.write("\n")
    print(f"wrote {json_out}")
EOF
