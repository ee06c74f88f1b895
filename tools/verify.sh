#!/bin/sh
# Tier-1 verification: build everything, run the full test suite, then
# build the odoc documentation when an odoc binary is available (the CI
# image may not ship one; all libraries are private, so the private-doc
# alias is the one that renders their interfaces and surfaces odoc
# warnings).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

# Trace integrity: an instrumented `ssd sta --stats --trace` run must
# emit a Chrome trace whose per-track timestamps are monotone and whose
# span ids/parents form a forest (tools/trace_check.exe validates both),
# and the --stats-json snapshot must be parseable JSON.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
SSD_FAST=1 dune exec bin/ssd.exe -- sta c880s --jobs 4 --stats \
  --trace "$TRACE_TMP/sta_trace.json" \
  --stats-json "$TRACE_TMP/sta_stats.json" >/dev/null
dune exec tools/trace_check.exe -- "$TRACE_TMP/sta_trace.json"
test -s "$TRACE_TMP/sta_stats.json"

# Corner and Monte-Carlo checks through the real binary: every plane of
# a 4-corner sweep, and every sample of the batched Monte-Carlo sweep (7
# samples in chunks of 3, so the last chunk is a tail), must be
# bit-identical to a closure-walk STA over its derated library.
SSD_FAST=1 dune exec bin/ssd.exe -- corners c880s --corners 4 \
  --check >/dev/null
SSD_FAST=1 dune exec bin/ssd.exe -- mc c880s --samples 7 --batch 3 \
  --check >/dev/null

# ECO replay through the real binary: tools/eco_smoke.eco uses every
# script directive (extra with a negative delta, swap, pi, model both
# ways, checkpoint, revert, commit), and --check re-analyzes the edited
# circuit after every edit.  --jobs 2 is accepted; the edits run on one
# lane.
SSD_FAST=1 dune exec bin/ssd.exe -- eco c880s tools/eco_smoke.eco \
  --check --jobs 2 >/dev/null

# Sign-off read through the real binary: the required-time check of
# c880s at an 8 ns clock must reproduce the checked-in report byte for
# byte (summary, PO table and 821 violation lines), and a clock period
# that is not a finite number >= 0 must be rejected before any analysis
# with exit status 2.
SSD_FAST=1 dune exec bin/ssd.exe -- sta c880s --clock 8 \
  > "$TRACE_TMP/sta_clock_c880s.out"
diff tools/sta_clock_c880s.golden "$TRACE_TMP/sta_clock_c880s.out"
# The same read under the pin-to-pin model (851 lines), whose windows
# run the kernel's per-pin rule; the report was captured from the
# binary before that rule existed, when the closure walk timed it.
SSD_FAST=1 dune exec bin/ssd.exe -- sta c880s --model pin-to-pin --clock 8 \
  > "$TRACE_TMP/sta_clock_c880s_pin_to_pin.out"
diff tools/sta_clock_c880s_pin_to_pin.golden \
  "$TRACE_TMP/sta_clock_c880s_pin_to_pin.out"
clock_status=0
SSD_FAST=1 dune exec bin/ssd.exe -- sta c17 --clock=-1 >/dev/null 2>&1 \
  || clock_status=$?
test "$clock_status" -eq 2

# .bench boundary through the real binary: a circuit whose own signal
# z$0 is named like the fresh node that decomposing z adds must be
# analyzed, and so must a copy of it under the same base name with CRLF
# line ends, a 200 KB comment line first (longer than the reader's
# buffer) and no final newline, to the same report.  A cyclic circuit,
# whose lines all parse, must be rejected before any analysis with one
# `ssd: FILE: message` line and exit status 2, and so must a directory,
# which opens but cannot be read.
SSD_FAST=1 dune exec bin/ssd.exe -- sta tools/fresh_name_clash.bench \
  > "$TRACE_TMP/fresh_name_clash.out"
mkdir "$TRACE_TMP/crlf"
{ printf '#%0200000d\n' 0; cat tools/fresh_name_clash.bench; } \
  | awk 'NR > 1 { printf "\r\n" } { printf "%s", $0 }' \
  > "$TRACE_TMP/crlf/fresh_name_clash.bench"
SSD_FAST=1 dune exec bin/ssd.exe -- sta "$TRACE_TMP/crlf/fresh_name_clash.bench" \
  > "$TRACE_TMP/fresh_name_clash_crlf.out"
diff "$TRACE_TMP/fresh_name_clash.out" "$TRACE_TMP/fresh_name_clash_crlf.out"
cycle_status=0
SSD_FAST=1 dune exec bin/ssd.exe -- sta tools/cycle.bench >/dev/null \
  2>"$TRACE_TMP/cycle.err" || cycle_status=$?
test "$cycle_status" -eq 2
test "$(wc -l < "$TRACE_TMP/cycle.err")" -eq 1
grep -q '^ssd: tools/cycle.bench: ' "$TRACE_TMP/cycle.err"
dir_status=0
SSD_FAST=1 dune exec bin/ssd.exe -- sta "$TRACE_TMP/crlf" >/dev/null \
  2>"$TRACE_TMP/dir.err" || dir_status=$?
test "$dir_status" -eq 2
test "$(wc -l < "$TRACE_TMP/dir.err")" -eq 1
grep -q '^ssd: ' "$TRACE_TMP/dir.err"

# Serve smoke: a live `ssd serve --stdio` session fed the canned request
# script must reproduce the checked-in transcript byte for byte — this
# exercises the real transport (framing, batching reader, EOF handling)
# end to end, and the bit-stable float rendering the record/replay
# contract rests on.  A second pass records the session and replays it
# through a fresh server with --check.
SSD_FAST=1 dune exec bin/ssd.exe -- serve --stdio \
  < tools/serve_smoke.req > "$TRACE_TMP/serve_smoke.out"
diff tools/serve_smoke.golden "$TRACE_TMP/serve_smoke.out"
SSD_FAST=1 dune exec bin/ssd.exe -- serve --stdio \
  --record "$TRACE_TMP/serve_smoke.log" \
  < tools/serve_smoke.req > /dev/null
SSD_FAST=1 dune exec bin/ssd.exe -- serve \
  --replay "$TRACE_TMP/serve_smoke.log" --check

# Frame cap through the real transport: a 2 MiB single-line frame is
# answered with frame-too-large once the reader has kept the cap's worth
# of it and dropped the rest through its newline, and the server then
# answers the next frame.
{ head -c 2097152 /dev/zero | tr '\0' x; printf '\n{"v":1,"id":2,"op":"ping"}\n'; } \
  | SSD_FAST=1 dune exec bin/ssd.exe -- serve --stdio \
  > "$TRACE_TMP/big_frame.out"
test "$(wc -l < "$TRACE_TMP/big_frame.out")" -eq 2
sed -n 1p "$TRACE_TMP/big_frame.out" | grep -q '"code":"frame-too-large"'
test "$(sed -n 2p "$TRACE_TMP/big_frame.out")" = '{"v":1,"id":2,"ok":{"pong":true}}'

# Crosstalk ATPG through the real binary: ITR-pruned test generation on
# c880s, then incremental fault simulation of the generated tests, must
# print the same report on one lane and on two, under either
# window-capable model.
for model in proposed pin-to-pin; do
  SSD_FAST=1 dune exec bin/ssd.exe -- atpg c880s --faults 16 --budget 300 \
    --model "$model" --jobs 1 > "$TRACE_TMP/atpg_j1.out"
  SSD_FAST=1 dune exec bin/ssd.exe -- atpg c880s --faults 16 --budget 300 \
    --model "$model" --jobs 2 > "$TRACE_TMP/atpg_j2.out"
  grep -q 'sites detected' "$TRACE_TMP/atpg_j1.out"
  cmp "$TRACE_TMP/atpg_j1.out" "$TRACE_TMP/atpg_j2.out"
done

# Downsized scale + corners + Monte-Carlo runs (the 100k/40k-gate
# experiments shrunk for CI — every bit-identity, footprint and speedup
# assertion still runs), consolidated into one invocation so the report
# lands in BENCH_9.json and is gated against the checked-in smoke
# baseline.  The baseline carries only machine-independent metrics
# (sizes, allocation footprints); the loose 400% gate still catches
# order-of-magnitude footprint regressions on any CI machine.
SSD_FAST=1 SSD_SCALE_GATES=5000 SSD_CORNERS=4000 SSD_MC=600 \
SSD_SERVE_REQS=8000 \
  dune exec bench/main.exe -- scale corners mc serve \
  --json BENCH_9.json \
  --baseline bench/BENCH_smoke_baseline.json --gate 400

if command -v odoc >/dev/null 2>&1; then
  dune build @doc @doc-private
else
  echo "verify: odoc not installed; skipping dune build @doc" >&2
fi

echo "verify: ok"
