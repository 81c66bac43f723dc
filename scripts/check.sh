#!/bin/sh
# check.sh — the repository's CI gate. Run it locally before pushing:
#
#   ./scripts/check.sh                # full gate (static + smoke + race)
#   ./scripts/check.sh static        # gofmt/build/vet/analyzers + -short smoke + fuzz
#   ./scripts/check.sh race <group>  # one race shard: harness | workloads | rest
#
# It must pass with zero findings; vetted exceptions are annotated in the
# source with //covirt:allow (see DESIGN.md "Static analysis & invariants").
# Each stage reports its wall-clock seconds so CI regressions are visible
# per gate, not just in the job total.
#
# The race tier is sharded into package groups so its long pole (the
# harness experiment matrix) no longer serializes behind everything else:
# locally the groups run as parallel jobs, and in CI they fan out as a
# matrix. The -short smoke tier always runs first for fast signal.
set -eu
cd "$(dirname "$0")/.."

stage_start=0
begin() {
    echo "==> $1"
    stage_start=$(date +%s)
}
end() {
    echo "    ($(( $(date +%s) - stage_start ))s)"
}

# race_group_pkgs maps a shard name to its package list. The harness
# matrix is the measured long pole and gets a shard to itself; workloads
# carries the solver suites (and the fleet, which exercises them); rest is
# everything else.
race_group_pkgs() {
    case "$1" in
    harness)   echo "covirt/internal/harness" ;;
    workloads) echo "covirt/internal/workloads covirt/internal/cluster" ;;
    rest)      go list ./... | grep -v -E 'internal/(harness|workloads|cluster)$' | tr '\n' ' ' ;;
    *)
        echo "check.sh: unknown race group '$1' (want harness|workloads|rest)" >&2
        exit 2
        ;;
    esac
}

mode="${1:-all}"

if [ "$mode" = race ]; then
    group="${2:?usage: check.sh race <harness|workloads|rest>}"
    begin "go test -race (group: $group)"
    # shellcheck disable=SC2046
    go test -race $(race_group_pkgs "$group")
    end
    echo "check.sh: race group $group passed"
    exit 0
fi

# Formatting first: it is the cheapest gate, and every file must be
# exactly as gofmt writes it.
begin "gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
end

begin "go build ./..."
go build ./...
end

# Interprocedural smoke first: a lock-order cycle or discipline break is
# the kind of bug the race tier might need minutes (or luck) to surface,
# so it fails the gate before any expensive stage runs.
begin "covirt-vet interprocedural smoke"
go run ./cmd/covirt-vet -checks lock-order,atomic-discipline,transitive-hot ./...
end

begin "go vet ./..."
go vet ./...
end

begin "covirt-vet ./... (-time: per-analyzer cost)"
go run ./cmd/covirt-vet -time ./...
end

# The zero-alloc gate deserves its own visible stage: a hotalloc finding
# means a //covirt:hot solver loop grew an allocation, which silently
# erodes the benchmarked speedups long before anything functionally fails.
begin "covirt-vet -checks hotalloc ./..."
go run ./cmd/covirt-vet -checks hotalloc ./...
end

# The capability gate: the module must sweep clean under cap-discipline
# (no resource-mutating mechanism reachable without a key-naming function
# or a written //covirt:ambient justification), and the analyzer must
# still have teeth — its fixture has to keep producing its known findings.
begin "covirt-vet -checks cap-discipline ./..."
go run ./cmd/covirt-vet -checks cap-discipline ./...
if go run ./cmd/covirt-vet -q -checks cap-discipline ./internal/analysis/testdata/capdiscipline/ 2>/dev/null; then
    echo "check.sh: cap-discipline fixture produced no findings" >&2
    exit 1
fi
end

begin "covirt-vet negative fixtures (must fail)"
for fixture in internal/analysis/testdata/*/; do
    if go run ./cmd/covirt-vet -q "./$fixture" 2>/dev/null; then
        echo "check.sh: fixture $fixture produced no findings" >&2
        exit 1
    fi
done
end

begin "go test -short ./... (smoke tier)"
go test -short ./...
end

# A short fuzz of the EPT against its per-page reference model: random
# map/unmap sequences, large-leaf splits and page-size caps. The seed
# corpus under internal/vmx/testdata also runs in every plain go test.
begin "go test -fuzz FuzzEPTMapUnmap (10s)"
go test -run '^$' -fuzz FuzzEPTMapUnmap -fuzztime 10s ./internal/vmx
end

# A short fuzz of the boot-parameter decoder the host runs on enclave
# memory: no panic, rejection is an error, and an accepted page re-encodes
# to the same bytes. Its seed corpus lives under internal/pisces/testdata.
begin "go test -fuzz FuzzDecodeBootParams (10s)"
go test -run '^$' -fuzz FuzzDecodeBootParams -fuzztime 10s ./internal/pisces
end

# A short fuzz of capability memory-scope containment against a 128-bit
# reference: no range ending past its scope is accepted, Wild scopes
# behave, and narrowing an accepted range keeps it accepted.
begin "go test -fuzz FuzzScopeContains (10s)"
go test -run '^$' -fuzz FuzzScopeContains -fuzztime 10s ./internal/authority
end

if [ "$mode" = static ]; then
    echo "check.sh: static gates passed"
    exit 0
fi

begin "go test -race (parallel shards: harness | workloads+cluster | rest)"
race_logs=$(mktemp -d)
race_fail=0
for group in harness workloads rest; do
    (
        # shellcheck disable=SC2046
        go test -race $(race_group_pkgs "$group")
    ) > "$race_logs/$group.log" 2>&1 &
    eval "race_pid_$group=$!"
done
for group in harness workloads rest; do
    eval "pid=\$race_pid_$group"
    if wait "$pid"; then
        echo "    race shard $group: ok"
    else
        echo "check.sh: race shard $group failed:" >&2
        cat "$race_logs/$group.log" >&2
        race_fail=1
    fi
done
rm -rf "$race_logs"
[ "$race_fail" -eq 0 ]
end

echo "check.sh: all gates passed"
