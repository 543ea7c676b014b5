package main

// mc-explore: one op is one bounded model-checker exploration. About 94%
// of its CPU is cvm.Boot (every replayed path cold-boots a machine), so
// boot work and exploration pruning show here; it runs no enclave
// syscall and no fabric traffic.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"veil/internal/mc"
)

const (
	mcDepth = 6
	// mcWorkers is the exploration parallelism. With two workers on a
	// 2-CPU host, replays contend with each other and the collector, and
	// ops/s and peak RSS spread several times wider from run to run.
	// Summaries are identical for any worker count.
	mcWorkers = 1
)

func mcConfig(seed int64) mc.Config {
	cfg := mc.Defaults()
	cfg.Depth = mcDepth
	cfg.Workers = mcWorkers
	cfg.Seed = seed
	return cfg
}

type mcInst struct {
	cfg mc.Config
	ref []byte // the Summary computed in setup, as JSON
	// honestCycles is the virtual clock at the end of the all-default
	// (honest host) path, replayed once in setup. mc.Summary carries no
	// clock, so vcycles_per_op on mc-explore is this fixed figure: it
	// follows the simulated cost of a path but not how many paths an
	// exploration replays (mc.replays_per_op counts those).
	honestCycles uint64
	got          mc.Summary
	total        ledger
}

func setupMC(seed int64) (*mcInst, error) {
	w := &mcInst{cfg: mcConfig(seed)}
	sum, err := mc.Explore(w.cfg)
	if err != nil {
		return nil, err
	}
	if sum.ViolatingPaths != 0 {
		return nil, fmt.Errorf("reference exploration found %d violating paths", sum.ViolatingPaths)
	}
	if w.ref, err = json.Marshal(sum); err != nil {
		return nil, err
	}
	res, err := mc.Replay(w.cfg, nil)
	if err != nil {
		return nil, err
	}
	w.honestCycles = res.CVM.M.Clock().Cycles()
	res.CVM.M.Release()
	if res.Outcome != mc.OutcomeCompleted || len(res.Violations) != 0 {
		return nil, fmt.Errorf("honest path: outcome %s, violations %v", res.Outcome, res.Violations)
	}
	return w, nil
}

func (w *mcInst) prepare(int) error { return nil }

func (w *mcInst) run(t *tracer) error {
	s := t.begin("mc.Explore")
	sum, err := mc.Explore(w.cfg)
	t.end(s)
	t.setCount(s, sum.Replays)
	w.got = sum
	w.total[cReplays] += sum.Replays
	w.total[cBranches] += sum.Branches
	w.total[cDedupHits] += sum.DedupHits
	w.total[cVCycles] += w.honestCycles
	return err
}

func (w *mcInst) verify() error {
	if w.got.ViolatingPaths != 0 {
		return fmt.Errorf("exploration found %d violating paths", w.got.ViolatingPaths)
	}
	got, err := json.Marshal(w.got)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.ref) {
		return fmt.Errorf("summary differs from setup's:\n got %s\nwant %s", got, w.ref)
	}
	return nil
}

func (w *mcInst) ledger() ledger { return w.total }

func (w *mcInst) release() {}
