#!/usr/bin/env bash
# Who is on the CPU during a benchmark run: starts BENCHMARK.json's command
# on one workload in a checkout and, one second before the run ends, reads
# every thread of the benchmark process from /proc/<pid>/task/* — CPU time
# (user + system) and context switches, voluntary (the thread blocked) and
# involuntary (it was preempted). A thread that only forwards shows up as
# CPU time of its own plus involuntary switches in the threads it preempts.
#
#   scripts/thread_census.sh <checkout-dir> <workload> [seconds=8] [seed=7]
#
# Prints one JSON object: {"workload", "seconds", "sampled_at_s",
# "threads": [{"thread", "cpu_s", "user_s", "sys_s", "voluntary",
# "involuntary"}]}, threads that used no CPU left out. Linux only; run it
# on an otherwise idle box, once per side, from the same shell.
set -euo pipefail
if [ $# -lt 2 ]; then
  sed -n '2,15p' "$0"
  exit 2
fi
dir=$1
workload=$2
seconds=${3:-8}
seed=${4:-7}
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
mapfile -t command < <(python3 -c '
import json, sys
for word in json.load(open(sys.argv[1]))["command"]:
    print(word)' "$spec")

cd "$dir"
# Build first, so the clock below times the run and not the compiler.
"${command[@]}" --workload "$workload" --seed "$seed" --seconds 1 --trace 0 >/dev/null
"${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null &
runner=$!
sleep $((seconds - 1))
# `cargo run` is the parent; the benchmark is its child.
pid=$(pgrep -P "$runner" -x naiad-bench || pgrep -n -x naiad-bench)
python3 - "$pid" "$workload" "$seconds" <<'EOF'
import glob, json, os, sys

pid, workload, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3])
tick = os.sysconf("SC_CLK_TCK")
threads = []
for task in sorted(glob.glob(f"/proc/{pid}/task/*"), key=lambda p: int(p.rsplit("/", 1)[1])):
    try:
        name = open(f"{task}/comm").read().strip()
        # Fields after the parenthesised name; utime and stime are 14 and 15.
        stat = open(f"{task}/stat").read().rsplit(")", 1)[1].split()
        status = dict(line.split(":", 1) for line in open(f"{task}/status") if ":" in line)
    except FileNotFoundError:
        continue
    user, system = int(stat[11]) / tick, int(stat[12]) / tick
    if user + system == 0:
        continue
    threads.append({"thread": name, "cpu_s": round(user + system, 2), "user_s": user, "sys_s": system,
                    "voluntary": int(status["voluntary_ctxt_switches"]),
                    "involuntary": int(status["nonvoluntary_ctxt_switches"])})
print(json.dumps({"workload": workload, "seconds": seconds, "sampled_at_s": seconds - 1,
                  "threads": threads}, indent=1))
EOF
wait "$runner" || true
