#!/usr/bin/env bash
# ci.sh — the full tier-1 gate. Run before every commit; CI runs the same.
#
#   ./ci.sh          full gate
#   ./ci.sh -quick   skip the race detector (slowest stage)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[ "${1:-}" = "-quick" ] && quick=1

step() { echo "== $*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

# Every binary parses its flags through internal/cli, whose contract is
# -h exits 0 and a usage error exits 2; a binary that bypasses it fails here.
step "CLI contract (-h exits 0, -nosuch exits 2, every cmd/ binary)"
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/" ./cmd/...
for bin in "$bindir"/*; do
    help=0; "$bin" -h > /dev/null 2>&1 || help=$?
    bad=0; "$bin" -nosuch > /dev/null 2>&1 || bad=$?
    if [ "$help" != 0 ] || [ "$bad" != 2 ]; then
        echo "ci.sh: $(basename "$bin"): -h exited $help (want 0), -nosuch exited $bad (want 2)" >&2
        exit 1
    fi
done

# A sweep point never builds its own machine: exp.Run hands each point its
# worker's MachinePool, and a point that declares the pool as `_` ignores
# it and pays for a machine per point (internal/exp package comment).
step "sweep points take their worker's MachinePool"
if grep -rn --include='*.go' --exclude='*_test.go' '_ \*exp\.MachinePool' internal cmd; then
    echo "ci.sh: a sweep point above ignores its worker's MachinePool; take a machine from it" >&2
    exit 1
fi

step "knl-lint -tests ./... (archiving lint.json)"
# Archive the machine-readable findings even on a clean run ([]): CI
# consumers diff lint.json across runs. -tests extends coverage to
# in-package _test.go files; -timing leaves a per-analyzer wall-time
# line ("lint-timing: ...") on stderr so the lint-stage cost shows up
# in the perf trajectory next to the bench numbers.
if ! go run ./cmd/knl-lint -json -tests -timing ./... > lint.json; then
    cat lint.json >&2
    exit 1
fi

step "go test ./..."
go test ./...

if [ "$quick" = 0 ]; then
    # These packages spawn goroutines: the real ParallelSort (msort.Simulate
    # replays on step kernels and spawns none) and the experiment worker
    # pool. Everything else, the simulator included, is single-threaded.
    step "go test -race (internal/msort, internal/exp)"
    go test -race ./internal/msort ./internal/exp

    # Tier 2: parallel-vs-serial digest equivalence under the race
    # detector, plus the engine benchmark smoke (asserts the zero-alloc
    # hot path still compiles and runs; numbers go to BENCH_sweep.json
    # via scripts/bench_baseline.sh).
    step "tier-2: TestParallelEquivalence -race"
    go test -run TestParallelEquivalence -race ./internal/exp/...
    step "tier-2: bench smoke (EngineEvent, 1 iteration)"
    go test -bench=EngineEvent -benchtime=1x -run '^$' ./internal/sim
    step "tier-2: bench smoke (machine hot path + construction, 1 iteration)"
    go test -bench='LoadLineHotPath|PrimeFlush|NewMachine|StreamFlushHelpers' -benchtime=1x -run '^$' ./internal/machine
    step "tier-2: bench smoke (tag-array scans, 1 iteration)"
    go test -bench='SetAssoc' -benchtime=1x -run '^$' ./internal/cache

    # Tier 2: a bounded coverage-guided run of the coherence fuzzer. Each
    # input runs loads, stores, NT stores, word adds and short streams from
    # eight cores, then checks MESIF, directory presence and inclusion and
    # the line tables' derived counts (Machine.CheckPresence) and the flush
    # and Reset replays (the latter also proves recycled payload words
    # never leak across Reset).
    step "tier-2: FuzzCoherence (10 s)"
    go test -run '^$' -fuzz '^FuzzCoherence$' -fuzztime 10s ./internal/machine

    # Tier 2: the benchmark module's own tests. perfbench is a separate Go
    # module, so the root go test ./... skips it, yet its pinned exact
    # counts (cache.hit_base, sim.events_per_run, the walk event counts)
    # are what prove a host-side rewrite changed no simulated work.
    step "tier-2: perfbench tests (pinned counts and import surface)"
    (cd perfbench && go test .)

    # Tier 2: the zero-allocation guarantee the hotalloc analyzer enforces
    # statically, re-proved dynamically: the steady-state event, step-handoff
    # and line paths, and Prime/FlushBuffer on a warm machine, must report
    # 0 allocs/op under -benchmem. awk echoes the benchmark lines itself:
    # `tee /dev/stderr` reopens a redirected log at offset 0, which
    # overwrote the log's head under `./ci.sh > ci.log 2>&1`.
    step "tier-2: zero-alloc gate (-benchmem, allocs/op must be 0)"
    go test -bench='BenchmarkEngineEventThroughput|BenchmarkStepHandoff' -benchtime=5000x -benchmem -run '^$' ./internal/sim |
        awk '{ print } /allocs\/op/ && $(NF-1) != 0 { print "ci.sh: " $1 " allocates on the hot path (" $(NF-1) " allocs/op)" > "/dev/stderr"; bad = 1 } END { exit bad }'
    go test -bench='BenchmarkLoadLineHotPath|BenchmarkStoreLineHotPath|BenchmarkPrimeFlush' -benchtime=5000x -benchmem -run '^$' ./internal/machine |
        awk '{ print } /allocs\/op/ && $(NF-1) != 0 { print "ci.sh: " $1 " allocates on the hot path (" $(NF-1) " allocs/op)" > "/dev/stderr"; bad = 1 } END { exit bad }'

    # Tier 2: memo determinism gate. Two identical -cache invocations into a
    # fresh cache directory must (a) print byte-identical results and (b) run
    # the second entirely from the cache: its memo summary must show zero
    # misses and zero stores, proving the simulator was never invoked.
    step "tier-2: memo determinism gate (two -cache runs, second must not simulate)"
    memodir="$bindir/memo"
    mkdir "$memodir"
    "$bindir/knl-sweep" -fig 4 -quick -nojitter -converge 3 \
        -cache -cache-dir "$memodir/cache" > "$memodir/run1.out" 2> "$memodir/run1.err"
    "$bindir/knl-sweep" -fig 4 -quick -nojitter -converge 3 \
        -cache -cache-dir "$memodir/cache" > "$memodir/run2.out" 2> "$memodir/run2.err"
    if ! cmp -s "$memodir/run1.out" "$memodir/run2.out"; then
        echo "ci.sh: cached rerun output differs from the cold run" >&2
        diff "$memodir/run1.out" "$memodir/run2.out" >&2 || true
        exit 1
    fi
    grep '^memo:' "$memodir/run2.err" >&2
    if ! grep -q '^memo: .*misses=0 stores=0' "$memodir/run2.err"; then
        echo "ci.sh: second -cache run invoked the simulator (expected misses=0 stores=0)" >&2
        exit 1
    fi

    # Tier 2: the committed artifacts are the oracle. Every results/ file
    # is regenerated by the binaries built above with its command from the
    # RESULTS heredoc below (the gate's own list; results/README.md shows
    # the same commands) and must be byte-identical to its committed copy.
    # This replaces listing byte-identical CLI runs by hand.
    step "tier-2: results/ regenerate byte-identical (every committed artifact)"
    resdir="$bindir/results"
    mkdir "$resdir"
    bad=0
    while read -r file cmd; do
        # $cmd is a binary name and its flags, split on purpose.
        # shellcheck disable=SC2086
        if ! "$bindir"/$cmd > "$resdir/$file" 2> "$resdir/$file.err"; then
            echo "ci.sh: $cmd failed:" >&2
            cat "$resdir/$file.err" >&2
            exit 1
        fi
        if ! cmp -s "results/$file" "$resdir/$file"; then
            echo "ci.sh: results/$file differs from its regeneration ($cmd):" >&2
            diff "results/$file" "$resdir/$file" | head -20 >&2 || true
            bad=1
        fi
    done <<'RESULTS'
table1.txt knl-bench -table 1 -quick
table2_flat.txt knl-bench -table 2 -memmode flat -quick
table2_cache.txt knl-bench -table 2 -memmode cache -quick
table2_hybrid.txt knl-bench -table 2 -memmode hybrid -quick
fig4.txt knl-sweep -fig 4 -quick
fig5.txt knl-sweep -fig 5 -quick
fig6.txt knl-coll -fig 6 -quick
fig7.txt knl-coll -fig 7 -quick
fig8.txt knl-coll -fig 8 -quick
fig9.txt knl-sweep -fig 9 -quick
fig10_dram.txt knl-sort -kind dram
fig10_mcdram.txt knl-sort -kind mcdram -lines 4096
speedups.txt knl-coll -speedups -quick
RESULTS
    for f in results/*.txt; do
        if [ ! -e "$resdir/$(basename "$f")" ]; then
            echo "ci.sh: $f has no regeneration command in ci.sh" >&2
            bad=1
        fi
    done
    [ "$bad" = 0 ] || exit 1
fi

echo "ci.sh: all gates passed"
