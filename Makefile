# Veil reproduction — convenience targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test vet race bench attacks demo experiments boot-full examples trace golden-check audit bench-obs bench-batch bench-mempath bench-smp bench-fleet bench-host smp-determinism fleet-determinism fleet-trace-determinism parallel-check mc-smoke mc-determinism loc clean

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full table/figure regeneration (Fig. 4/5/6 + §9.1 micro + ablations).
experiments:
	$(GO) run ./cmd/veil-bench -experiment all

# The paper's full-scale 2 GiB boot experiment (slow: sweeps 524288 pages).
boot-full:
	$(GO) run ./cmd/veil-bench -experiment boot -mem 2048

# Byte-compare the deterministic fig4/fig5 JSON against the committed
# goldens (testdata/goldens). Any drift in the virtual-cycle model — e.g.
# from a memory-path change that was supposed to be behaviour-preserving —
# fails this target.
golden-check:
	$(GO) run ./cmd/veil-bench -experiment fig4 -iters 500 -json /tmp/veil-golden-fig4.json
	$(GO) run ./cmd/veil-bench -experiment fig5 -iters 500 -json /tmp/veil-golden-fig5.json
	cmp testdata/goldens/fig4.json /tmp/veil-golden-fig4.json
	cmp testdata/goldens/fig5.json /tmp/veil-golden-fig5.json

# Tables 1 & 2 and the §8.3 validation attacks, executed live.
attacks:
	$(GO) run ./cmd/veil-attack -suite all

# Run the security-invariant auditor both ways (docs/OBSERVABILITY.md):
# attacks under audit must leave machine-checkable evidence (veil-attack
# exits 1 on any silently-defended attack), and the clean demo + fig4
# evaluation workload must stay violation-free (both exit 1 otherwise).
audit:
	$(GO) run ./cmd/veil-attack -suite all -audit -evidence
	$(GO) run ./cmd/veil-sim -audit
	$(GO) run ./cmd/veil-bench -experiment fig4 -iters 500 -audit

# Regenerate the committed observability-tax measurement (BENCH_obs.json).
# Longer runs than the -experiment all default: the auditor bound is a
# wall-clock ratio, so the measured window must swamp scheduler jitter.
bench-obs:
	$(GO) run ./cmd/veil-bench -experiment obs -iters 30000 -json BENCH_obs.json

# Regenerate the committed batched-invocation amortization curve
# (BENCH_batch.json). Fully deterministic with -stable: every value is
# virtual cycles, so CI can byte-compare and -compare it across builds.
bench-batch:
	$(GO) run ./cmd/veil-bench -experiment batch -stable -json BENCH_batch.json

# Regenerate the committed memory-path measurement (-stable zeroes the one
# wall-clock field so the file is reproducible).
bench-mempath:
	$(GO) run ./cmd/veil-bench -experiment mempath -stable -json BENCH_mempath.json

# Regenerate the committed host-throughput measurement
# (BENCH_hostperf.json): pooled/batched hot paths vs their exact
# references, plus the parallel fan-out curve. Pure wall-clock numbers, so
# the file is machine-shaped and NOT byte-reproducible — regenerate it on
# a quiet machine and eyeball the speedups (docs/PERFORMANCE.md explains
# each line); -compare gates it under the loose -host-tol family.
bench-host:
	$(GO) run ./cmd/veil-bench -experiment hostperf -iters 2000 -json BENCH_hostperf.json

# Regenerate the committed SMP scheduling measurement (BENCH_smp.json):
# poll-vs-interrupt completion costs and cross-VCPU fairness. Every value is
# virtual cycles from fixed seeds, so no -stable is needed.
bench-smp:
	$(GO) run ./cmd/veil-bench -experiment smp -json BENCH_smp.json

# Regenerate the committed multi-CVM fleet measurement (BENCH_fleet.json):
# attested VeilS-Channel sessions over the simulated fabric plus local
# VeilS-Log tenants. Every value is virtual cycles from fixed seeds; the
# merged per-machine Chrome trace is pinned by its sha256 in the file.
bench-fleet:
	$(GO) run ./cmd/veil-bench -experiment fleet -json BENCH_fleet.json

# The fleet determinism gate: one goroutine steps every CVM, and the claim
# under test is that host parallelism cannot leak into results — different
# GOMAXPROCS, byte-identical JSON (including the merged-trace digest), and
# -compare agrees the gated values match.
fleet-determinism:
	GOMAXPROCS=1 $(GO) run ./cmd/veil-bench -experiment fleet -json /tmp/veil-fleet-a.json
	$(GO) run ./cmd/veil-bench -experiment fleet -json /tmp/veil-fleet-b.json
	cmp /tmp/veil-fleet-a.json /tmp/veil-fleet-b.json
	$(GO) run ./cmd/veil-bench -compare /tmp/veil-fleet-a.json /tmp/veil-fleet-b.json

# The fleet-trace determinism gate (obs v4): the merged Chrome trace, the
# cross-machine causal view and the machine-labeled fleet summary must be
# byte-identical across GOMAXPROCS settings, and the evidence correlator
# must survive the race detector.
fleet-trace-determinism:
	mkdir -p /tmp/veil-ftd-a /tmp/veil-ftd-b
	$(GO) build -o /tmp/veil-ftd-sim ./cmd/veil-sim
	cd /tmp/veil-ftd-a && GOMAXPROCS=1 /tmp/veil-ftd-sim -fleet 3 -trace fleet-trace.json -causal fleet-causal.json -metrics > metrics.txt
	cd /tmp/veil-ftd-b && /tmp/veil-ftd-sim -fleet 3 -trace fleet-trace.json -causal fleet-causal.json -metrics > metrics.txt
	cmp /tmp/veil-ftd-a/fleet-trace.json /tmp/veil-ftd-b/fleet-trace.json
	cmp /tmp/veil-ftd-a/fleet-causal.json /tmp/veil-ftd-b/fleet-causal.json
	cmp /tmp/veil-ftd-a/metrics.txt /tmp/veil-ftd-b/metrics.txt
	$(GO) test -race -run 'Fleet|Correlate|TraceRef|PerLink' ./internal/obs ./internal/fabric

# The SMP determinism gate: two identically-seeded runs of the scheduler
# experiment must produce byte-identical JSON.
smp-determinism:
	$(GO) run ./cmd/veil-bench -experiment smp -json /tmp/veil-smp-a.json
	$(GO) run ./cmd/veil-bench -experiment smp -json /tmp/veil-smp-b.json
	cmp /tmp/veil-smp-a.json /tmp/veil-smp-b.json

# The parallel experiment runner must not change results: shard the full
# suite across 4 workers and byte-compare against the sequential run.
parallel-check:
	$(GO) run ./cmd/veil-bench -experiment all -iters 500 -stable -json /tmp/veil-bench-j1.json -j 1
	$(GO) run ./cmd/veil-bench -experiment all -iters 500 -stable -json /tmp/veil-bench-j4.json -j 4
	cmp /tmp/veil-bench-j1.json /tmp/veil-bench-j4.json
	$(GO) run ./cmd/veil-bench -compare /tmp/veil-bench-j1.json /tmp/veil-bench-j4.json

# The bounded model-check gate (docs/MODELCHECK.md): exhaustively explore
# every schedule pick × per-delivery interrupt mode × RMPADJUST injection
# timing on the 2-VCPU 2-process config up to the gate depth — the run
# must explore >0 states with 0 violations — then prove the checker has
# teeth: with TLB invalidation suppressed (the seeded known-bad mutation)
# it must find the stale-TLB violation, minimize it, and the written
# counterexample must replay back into the same violation.
mc-smoke:
	$(GO) run ./cmd/veil-mc -depth 8
	$(GO) run ./cmd/veil-mc -depth 4 -broken-tlb -expect-violation -ce /tmp/veil-mc-ce.json
	$(GO) run ./cmd/veil-mc -replay /tmp/veil-mc-ce.json -expect-violation

# The model-check determinism gate: the parallel BFS frontier explorer
# self-schedules replays across workers, so the claim under test is that
# worker count cannot leak into exploration statistics — byte-identical
# -json summaries at 1 and 4 workers, and the sequential DFS order agrees
# with BFS on the leaf tallies (asserted in internal/mc tests).
mc-determinism:
	$(GO) run ./cmd/veil-mc -depth 10 -json -workers 1 > /tmp/veil-mc-w1.json
	$(GO) run ./cmd/veil-mc -depth 10 -json -workers 4 > /tmp/veil-mc-w4.json
	cmp /tmp/veil-mc-w1.json /tmp/veil-mc-w4.json

# End-to-end demo of all protected services.
demo:
	$(GO) run ./cmd/veil-sim

# Capture a Chrome trace_event timeline of the full demo and sanity-check
# it (see docs/OBSERVABILITY.md; open the JSON in Perfetto).
trace:
	$(GO) run ./cmd/veil-sim -trace /tmp/veil-trace.json
	$(GO) run ./cmd/veil-trace-check /tmp/veil-trace.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shielded-kv
	$(GO) run ./examples/secure-audit
	$(GO) run ./examples/kernel-module

bench:
	$(GO) test -bench=. -benchmem

# Go line counts, production and _test.go, outside perfbench/ (which is a
# module of its own). Every change reports its net production-line delta.
GO_FILES = find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*.go' -print
loc:
	@$(GO_FILES) | grep -v '_test\.go$$' | xargs cat | wc -l | awk '{print "production", $$1}'
	@$(GO_FILES) | grep '_test\.go$$' | xargs cat | wc -l | awk '{print "test", $$1}'

clean:
	$(GO) clean ./...
