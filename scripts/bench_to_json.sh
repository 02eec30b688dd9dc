#!/usr/bin/env bash
# Runs the `micro` benchmark harness and dumps every measurement to a JSON
# file (default BENCH_16.json at the repo root) for the perf trajectory.
#
# Usage: scripts/bench_to_json.sh [output.json]
#
# The criterion-compatible harness honours CRITERION_JSON: when set, it
# writes a JSON array of {group, bench, mean_ns, iterations, samples}
# objects after all groups have run (the groups are listed at the top of
# crates/bench/benches/micro.rs). The printout covers the carried ratios:
# `kernels_v2` eigen vs its pinned Jacobi reference; `kernels_v3`
# `matmul_micro/512` vs `matmul_blocked_seed/512` (>=1.5x); `streaming`
# `be_dr_streaming/50000` vs `be_dr_in_memory/50000` (>=0.8x throughput),
# per-scheme streaming throughput and the fully-streamed
# `be_dr_streaming/500000` flagship; the runner, journal, shard, supervise
# and moment-merge overheads over one eight-workload grid (<=5%, <=5%,
# <=10%, <=5%, <=10%); and `pipeline_ring` ring depths vs the sequential
# loop (`be_dr_ring4/50000` >=0.95x; depth 2 is the old double buffer)
# plus the blocked covariance vs the per-row sweep
# (`sample_covariance_n1000/256` vs `sample_covariance_rowsweep_n1000/256`,
# >=1.3x); and the `csv` codec ratios, the banded parser and formatter vs
# the per-line and per-value seed loops on one 8192 x 64 chunk
# (`csv_parse/8192` vs `csv_parse_seed/8192`, >=2.7x; `csv_format/8192`
# vs `csv_format_seed/8192`, >=5.6x); and the two `posterior` ratios,
# UDR's tabulated uniform-noise posterior over 20 000 values vs the
# full-grid reference (`udr_uniform/20000` vs
# `udr_uniform_reference/20000`, >=10x) and vs the per-value window loop
# it replaced (`udr_uniform_window_seed/20000`, >=4x); and the `mvn` ratio, one 8192 x 64 chunk drawn in one buffer
# and transformed in place through L's lower triangle vs the two-buffer
# `Z * L^T` path (`sample_matrix/8192` vs `sample_matrix_gebp_seed/8192`,
# >=1.15x); and the `streaming_group` ratio, pass 2 of one five-scheme
# streaming workload group as one group pass vs the per-member loop it
# replaced (`per_member/5` vs `group/5`, >=2x).
# BENCH_1.json … BENCH_15.json are frozen records of earlier states of the
# code; pass one of them as the argument only to regenerate history
# deliberately.

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_16.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

CRITERION_JSON="$tmp" cargo bench -p randrecon-bench --bench micro

# Guard against a harness that ignored CRITERION_JSON (e.g. the stub was
# swapped for real criterion): never clobber the perf record with nothing.
if [ ! -s "$tmp" ]; then
    echo "error: bench harness produced no JSON (CRITERION_JSON unsupported?); keeping existing $out" >&2
    exit 1
fi

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out"

# Print the headline ratios so CI logs capture them. Every carried ratio
# with an acceptance prints PASS or FAIL and its bound, and the last line
# names each failing ratio. The exit status stays 0: the streaming,
# sharding and moment-merge ratios fail on 2-core hosts until the ring and
# the reduce are reworked (ROADMAP items 2 and 3).
python3 - "$out" <<'EOF' 2>/dev/null || true
import json, sys
results = {(r["group"], r["bench"]): r["mean_ns"] for r in json.load(open(sys.argv[1]))}
failing = []
def verdict(name, ok, bound):
    """PASS or FAIL and the bound, remembering each failing ratio."""
    if not ok:
        failing.append(name)
    return f"{'PASS' if ok else 'FAIL'} (acceptance {bound})"
for m in (64, 128, 256):
    new = results.get(("kernels_v2", f"eigen/{m}"))
    old = results.get(("kernels_v2", f"eigen_jacobi/{m}"))
    if new and old:
        print(f"eigen m={m}: jacobi {old/1e6:.2f} ms -> householder+QL {new/1e6:.2f} ms  ({old/new:.2f}x)")
for n in (256, 512):
    new = results.get(("kernels_v3", f"matmul_micro/{n}"))
    old = results.get(("kernels_v3", f"matmul_blocked_seed/{n}"))
    if new and old:
        note = "  " + verdict("microkernel", old / new >= 1.5, ">=1.5x") if n == 512 else ""
        print(f"matmul {n}x{n}: axpy-blocked {old/1e6:.2f} ms -> microkernel {new/1e6:.2f} ms  ({old/new:.2f}x){note}")
stream = results.get(("streaming", "be_dr_streaming/50000"))
memory = results.get(("streaming", "be_dr_in_memory/50000"))
if stream and memory:
    print(f"be_dr 50k rows: in-memory {memory/1e6:.2f} ms vs streaming {stream/1e6:.2f} ms  (throughput ratio {memory/stream:.3f}x)  {verdict('streaming', memory / stream >= 0.8, '>=0.8x')}")
for scheme in ("ndr", "udr", "sf", "pca_dr", "be_dr"):
    t = results.get(("streaming", f"{scheme}_streaming/50000"))
    if t:
        print(f"{scheme} 50k x 64 streaming: {t/1e6:.2f} ms  ({50000/(t/1e9):.0f} records/s)")
big = results.get(("streaming", "be_dr_streaming/500000"))
if big:
    print(f"be_dr 500k rows fully streamed: {big/1e9:.2f} s end-to-end ({500000/(big/1e9):.0f} records/s, bounded memory)")
overheads = (
    ("scenario", "runner/8", "handrolled/8", "runner", 5,
     "scenario runner over 8 distinct workloads: hand-rolled {old} vs runner {new}  (scheduling overhead"),
    ("journal", "journaled/8", "plain/8", "journal", 5,
     "result journal over 8 workloads: plain {old} vs journaled {new}  (journaling overhead"),
    ("shard", "sharded/8", "plain/8", "shard", 10,
     "sharded runner over 8 workloads (2 in-process shards): plain {old} vs sharded {new}  (coordination overhead"),
    ("supervise", "supervised/8", "sharded/8", "supervise", 5,
     "supervised sharding over 8 workloads: bare {old} vs heartbeats+deadline {new}  (supervision overhead"),
    ("moment_merge", "merged/8", "never/8", "moment merge", 10,
     "moment-merged sharding over 8 streaming workloads: unsplit {old} vs split+merged {new}  (moment-merge overhead"),
)
for group, new_bench, old_bench, name, bound, text in overheads:
    new = results.get((group, new_bench))
    old = results.get((group, old_bench))
    if new and old:
        overhead = (new - old) / old * 100
        line = text.format(old=f"{old/1e6:.2f} ms", new=f"{new/1e6:.2f} ms")
        print(f"{line} {overhead:+.1f}%)  {verdict(name, overhead <= bound, f'<={bound}%')}")
for n in (50000, 500000):
    seq = results.get(("pipeline_ring", f"be_dr_sequential/{n}"))
    for depth in ("two_slot", "ring4", "ring8"):
        t = results.get(("pipeline_ring", f"be_dr_{depth}/{n}"))
        if t and seq:
            note = "  " + verdict("ring", seq / t >= 0.95, ">=0.95x") if (n, depth) == (50000, "ring4") else ""
            print(f"pass-2 {depth} at {n} rows: sequential {seq/1e6:.2f} ms vs {t/1e6:.2f} ms  (throughput ratio {seq/t:.3f}x){note}")
for m in (128, 256):
    new = results.get(("pipeline_ring", f"sample_covariance_n1000/{m}"))
    old = results.get(("pipeline_ring", f"sample_covariance_rowsweep_n1000/{m}"))
    if new and old:
        note = "  " + verdict("blocked covariance", old / new >= 1.3, ">=1.3x") if m == 256 else ""
        print(f"covariance n=1000 m={m}: per-row sweep {old/1e6:.2f} ms -> blocked panels {new/1e6:.2f} ms  ({old/new:.2f}x){note}")
for step, bound in (("parse", 2.7), ("format", 5.6)):
    new = results.get(("csv", f"csv_{step}/8192"))
    old = results.get(("csv", f"csv_{step}_seed/8192"))
    if new and old:
        print(f"csv {step} 8192x64 chunk: seed loop {old/1e6:.2f} ms -> banded codec {new/1e6:.2f} ms  ({old/new:.2f}x)  {verdict(f'csv {step}', old / new >= bound, f'>={bound}x')}")
new = results.get(("posterior", "udr_uniform/20000"))
old = results.get(("posterior", "udr_uniform_reference/20000"))
if new and old:
    print(f"udr uniform-noise posterior, 20000 values: full grid {old/1e6:.2f} ms -> window table {new/1e6:.2f} ms  ({old/new:.2f}x)  {verdict('posterior', old / new >= 10, '>=10x')}")
seed = results.get(("posterior", "udr_uniform_window_seed/20000"))
if new and seed:
    print(f"udr uniform-noise posterior, 20000 values: per-value window loop {seed/1e6:.2f} ms -> window table {new/1e6:.2f} ms  ({seed/new:.2f}x)  {verdict('posterior window', seed / new >= 4, '>=4x')}")
new = results.get(("mvn", "sample_matrix/8192"))
old = results.get(("mvn", "sample_matrix_gebp_seed/8192"))
if new and old:
    print(f"mvn 8192x64 chunk: two buffers + GEBP Z*L^T {old/1e6:.2f} ms -> one buffer, in-place triangular {new/1e6:.2f} ms  ({old/new:.2f}x)  {verdict('mvn', old / new >= 1.15, '>=1.15x')}")
new = results.get(("streaming_group", "group/5"))
old = results.get(("streaming_group", "per_member/5"))
if new and old:
    print(f"streaming group pass, 5 schemes over one 20000x32 stream: per-member loop {old/1e6:.2f} ms -> group pass {new/1e6:.2f} ms  ({old/new:.2f}x)  {verdict('streaming group', old / new >= 2, '>=2x')}")
print("failing carried ratios: " + (", ".join(failing) if failing else "none"))
EOF
