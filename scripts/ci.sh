#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
#
# Offline-friendly by design: every dependency is a path crate (see
# shims/), so no step needs the network. `--offline` makes that a hard
# guarantee rather than an accident of a warm cargo cache.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --release --workspace
run cargo fmt --all --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Docs build warning-free, so an intra-doc link to a removed or private
# item fails here instead of rotting silently.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Smoke-run the aggregation bench on a shrunken dataset: exercises the
# repeated-walk vs single-pass path end to end without emitting (or
# perturbing) the full-scale BENCH_scan.json artifact.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-bench --bench scan
# Smoke-run the worldgen bench at test scale: exercises the serial arm
# and the executor thread sweep plus the shared-chain consolidation
# assertion without emitting the full-scale BENCH_worldgen.json artifact.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-bench --bench worldgen
# No-regression guard on the committed worldgen artifact: the 2-thread
# arm must not lose to serial. The floor depends on where the numbers
# were recorded — on a multi-core machine 2 workers must actually win
# (>= 1.00), and that is where this guard has real resolution. On a
# single-core recorder the two workers timeshare one core, so the arm
# measures scheduling overhead: ~0.85-0.95 is the healthy range there
# (it drifts with how fast the host's one core is that day), and the
# 0.80 floor only catches gross breakage — a stalled or convoying pool,
# not a few-percent overhead creep.
echo "==> worldgen speedup guard (BENCH_worldgen.json)"
awk '
  /"cores"/      { gsub(/[^0-9]/, "", $2); cores = $2 + 0 }
  /"speedup_at_2"/ { gsub(/[^0-9.]/, "", $2); s2 = $2 + 0 }
  END {
    if (s2 == 0) { print "missing speedup_at_2 in BENCH_worldgen.json"; exit 1 }
    floor = (cores >= 2) ? 1.00 : 0.80
    printf "    speedup_at_2=%.2f cores=%d floor=%.2f\n", s2, cores, floor
    if (s2 < floor) {
      printf "worldgen 2-thread speedup %.2f regressed below %.2f\n", s2, floor
      exit 1
    }
  }
' BENCH_worldgen.json
# Sweep-shape guard on the same artifact: walking up the thread sweep,
# no arm may cost more than a tolerance over the best smaller arm (the
# 8-thread claim-contention regression showed up here long before it
# hurt wall-clock at 2 threads). The tolerance is per-arm and
# core-aware, like the speedup floor above: arms whose workers fit in
# the recording machine's cores measure real parallelism (1.25x), while
# oversubscribed arms timeshare and measure scheduling overhead plus
# host noise, so only a gross regression is signal there (1.60x).
echo "==> worldgen sweep-shape guard (BENCH_worldgen.json)"
awk '
  /"cores"/ { gsub(/[^0-9]/, "", $2); cores = $2 + 0 }
  /"threads"/ {
    for (i = 1; i <= NF; i++) {
      if ($i ~ /"ns":/) { v = $(i+1); gsub(/[^0-9.]/, "", v); ns = v + 0 }
      if ($i ~ /"threads":/) { v = $(i+1); gsub(/[^0-9]/, "", v); t = v + 0 }
    }
    tol = (t <= cores) ? 1.25 : 1.60
    if (best == 0) { best = ns }
    printf "    t%d: %.0fns (best so far %.0fns, tolerance %.2fx)\n", t, ns, best, tol
    if (ns > best * tol) {
      printf "worldgen sweep arm t%d (%.0fns) exceeds %.2fx best smaller arm (%.0fns)\n", t, ns, tol, best
      exit 1
    }
    if (ns < best) { best = ns }
  }
' BENCH_worldgen.json
# Cold-scan guard on the committed scan artifact: the memoized cold
# scan must not lose to the frozen pre-memoization baseline.
echo "==> scan cold-speedup guard (BENCH_scan.json)"
awk '
  /"cold_speedup_vs_baseline"/ { gsub(/[^0-9.]/, "", $2); cold = $2 + 0 }
  END {
    if (cold == 0) { print "missing cold_speedup_vs_baseline in BENCH_scan.json"; exit 1 }
    printf "    cold_speedup_vs_baseline=%.2f floor=1.00\n", cold
    if (cold < 1.00) {
      printf "cold scan speedup %.2f regressed below the uncached baseline\n", cold
      exit 1
    }
  }
' BENCH_scan.json
# Smoke-run the store bench at test scale: asserts the snapshot
# round-trip invariant (digest equality + byte-identical analysis
# renders), times write/load/regenerate, and skips the full-scale
# BENCH_store.json emission.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-bench --bench store
# Smoke-run the serve bench at test scale: times the cold vs warm
# /table2 path (asserting the report cache earns its keep) and drives
# real TCP clients at 1/4/8 threads, skipping BENCH_serve.json emission.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-bench --bench serve
# Snapshot + diff smoke: archive both sides of the disclosure
# comparison at tiny scale, then reproduce the report and Figure 13
# purely from the two files.
snapdir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin snapshot -- \
  rescan --out-before "$snapdir/before.snap" --out-after "$snapdir/after.snap"
run cargo run --offline -q -p govscan-repro --bin snapshot -- report --from "$snapdir/before.snap" > /dev/null
run cargo run --offline -q -p govscan-repro --bin snapshot -- diff "$snapdir/before.snap" "$snapdir/after.snap" > /dev/null
# Daemon smoke over the same two archives: bind an ephemeral port, hit
# every endpoint through the real TCP path, verify each answer is
# well-formed JSON and the repeated report is a cache hit, shut down
# cleanly. All of that is `--self-check`.
run cargo run --offline -q -p govscan-serve -- \
  --archive "$snapdir/before.snap" --archive "$snapdir/after.snap" --self-check
rm -rf "$snapdir"
# Streamed-pipeline smoke: generate→scan→archive one shard window at a
# time, then re-run the materialized reference arm and require the two
# archives' digests to be byte-identical (--self-check exits non-zero
# otherwise). GOVSCAN_BENCH_SMOKE=1 shrinks the world ~50x.
pipedir="$(mktemp -d)"
run env GOVSCAN_BENCH_SMOKE=1 cargo run --offline -q -p govscan-repro --bin pipeline -- \
  --scale 1 --shard-window 2 --out "$pipedir/smoke.snap" --self-check
rm -rf "$pipedir"
# Streamed-pipeline bench smoke: both arms at two scales as
# subprocesses, asserting digest equality and the peak-RSS comparison,
# without emitting the full-scale BENCH_pipeline.json artifact.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-repro --bench pipeline
# Distributed-scan smoke: 2 workers over the real socket protocol with
# worker 0 killed on its first shard; the binary exits non-zero unless
# the lease-recovered, merged dataset's digest equals the
# single-process scan's.
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin distributed -- \
  --workers 2 --socket --inject-death
# Longitudinal-monitor smoke: baseline + 4 weekly epochs of the
# evolving world; --self-check digest-proves every epoch's incremental
# scan against full rescans at one and at N threads, round-trips each
# delta, and re-resolves the on-disk chain against the final archive
# (exits non-zero on any mismatch). Scale 0.05 is the smallest world
# where the default seed exercises the CAA ancestor-coupling rule
# (www.* probed because its apex changed) — keep it there.
mondir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.05 cargo run --offline -q -p govscan-repro --bin monitor -- \
  --epochs 4 --self-check --out-dir "$mondir" > /dev/null
# Serve the chain the monitor just wrote: registers each delta as an
# addressable epoch and hits every endpoint (including /trends over
# the chain) through the real TCP path.
run cargo run --offline -q -p govscan-serve -- \
  --archive "$mondir/epoch-0.snap" --delta "$mondir/epoch-1.dlt" \
  --delta "$mondir/epoch-2.dlt" --self-check
rm -rf "$mondir"
# Monitor bench smoke: 4 epochs on a ~50x-shrunken world with
# self-check on, asserting the probe-economy and chain-size bars at
# relaxed smoke thresholds, without emitting BENCH_monitor.json.
run env GOVSCAN_BENCH_SMOKE=1 cargo bench --offline -p govscan-monitor --bench monitor
# Economy guards on the committed monitor artifact: steady-state
# epochs must probe <=30% of hosts, and the delta chain must be >=5x
# smaller than storing every epoch as a full archive.
echo "==> monitor economy guards (BENCH_monitor.json)"
awk '
  /"steady_state_probe_fraction"/ { gsub(/[^0-9.]/, "", $2); probe = $2 + 0 }
  /"bytes_ratio"/                 { gsub(/[^0-9.]/, "", $2); ratio = $2 + 0 }
  END {
    if (probe == 0 || ratio == 0) { print "missing fields in BENCH_monitor.json"; exit 1 }
    printf "    steady_state_probe_fraction=%.3f ceiling=0.30, bytes_ratio=%.2f floor=5.00\n", probe, ratio
    if (probe > 0.30) { printf "steady-state probe fraction %.3f exceeds 0.30\n", probe; exit 1 }
    if (ratio < 5.00) { printf "chain only %.2fx smaller than full archives (floor 5x)\n", ratio; exit 1 }
  }
' BENCH_monitor.json

echo "CI OK"
