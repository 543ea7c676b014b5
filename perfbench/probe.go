package main

// The probe phase of a traced run: direct calls into single layers on
// already-booted machines, so each layer's cost can be read on its own
// and an enclave call reconciles as native call plus redirection. Every
// workload probes cvm.Boot and mc.Replay (boot time feeds every
// workload's setup_s); only enclave-kv, whose ops cross sdk, kernel and
// core, probes those layers. Per-layer metrics of layers a workload's
// ops never touch read 0.

import (
	"bytes"
	"fmt"
	"runtime"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/mc"
	"veil/internal/sdk"
)

const (
	probeBoots   = 16  // cvm.Boot, and mc.Replay, calls of the mc machine shape
	probeCalls   = 64  // rounds of open/lseek/write/lseek/read/close per libc
	probeSrv     = 256 // OSStub.CallSrv, and OSStub.AuditEmit, calls
	probeBatches = 64  // OSStub.CallSrvBatch calls
	probePath    = "/tmp/perfbench-probe"
)

// probe runs the layer probes for inst's workload, recording spans into
// t, and adds the metrics that are not plain span medians to m.
func probe(m map[string]metric, inst instance, seed int64, t *tracer) error {
	if err := probeMC(m, seed, t); err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	if kv, ok := inst.(*kvInst); ok {
		if err := probeKV(kv, seed, t); err != nil {
			return fmt.Errorf("enclave: %w", err)
		}
	}
	return nil
}

// probeMC times cold boots of the model checker's machine shape, each
// followed by a replay of a seeded pick sequence (which boots the same
// shape and then runs the path), so path run time is a paired difference.
func probeMC(m map[string]metric, seed int64, t *tracer) error {
	cfg := mcConfig(seed)
	r := opRand(seed, -1)
	var allocs, paths []float64
	var replayS float64
	for i := 0; i < probeBoots; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := t.begin("cvm.Boot")
		c, err := cvm.Boot(cvm.Options{
			MemBytes: cfg.MemBytes, VCPUs: cfg.VCPUs, Veil: true, LogPages: cfg.LogPages,
			Rand: seededReader(cfg.Seed),
		})
		t.end(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		c.M.Release()
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

		picks := make([]int, cfg.Depth)
		for j := range picks {
			picks[j] = r.Intn(4)
		}
		rs := t.begin("mc.Replay")
		res, err := mc.Replay(cfg, picks)
		t.end(rs)
		if err != nil {
			return err
		}
		res.CVM.M.Release()
		if len(res.Violations) != 0 {
			return fmt.Errorf("replay %v: violations %v", picks, res.Violations)
		}
		boot, replay := t.spans[s].end-t.spans[s].start, t.spans[rs].end-t.spans[rs].start
		paths = append(paths, float64(replay-boot)/1e6)
		replayS += float64(replay) / 1e9
	}
	m["cvm.boot_alloc_mb"] = metric{median(allocs), "MB"}
	m["cvm.boot_ms"] = metric{median(durationsUS(t.spans, "cvm.Boot")) / 1e3, "ms"}
	m["mc.replays_per_s"] = metric{probeBoots / replayS, "1/s"}
	m["mc.path_run_ms"] = metric{median(paths), "ms"}
	return nil
}

// probeKV times each libc call inside the enclave and natively on the
// same CVM, then the OS stub's service calls.
func probeKV(w *kvInst, seed int64, t *tracer) error {
	d := &sdk.DirectLibc{K: w.c.K, P: w.host}
	fd, err := d.Open(probePath, kernel.OCreat|kernel.ORdwr, 0o600)
	if err != nil {
		return err
	}
	if err := d.Close(fd); err != nil {
		return err
	}
	w.cl.tr, w.cl.err = t, nil
	rc, err := w.app.Enter("probe")
	w.cl.tr = nil
	if err != nil || rc != 0 {
		return fmt.Errorf("enclave probe: rc %d, %v, %v", rc, err, w.cl.err)
	}
	if err := libcProbe(d, t, kernelCalls); err != nil {
		return fmt.Errorf("native probe: %w", err)
	}

	st := w.c.Stub
	stats := core.Request{Svc: core.SvcLOG, Op: core.OpLogStats}
	for i := 0; i < probeSrv; i++ {
		s := t.begin("core.CallSrv")
		resp, err := st.CallSrv(stats)
		t.end(s)
		if err != nil || resp.Status != core.StatusOK {
			return fmt.Errorf("CallSrv: status %d, %v", resp.Status, err)
		}
	}
	batch := make([]core.Request, kvAuditBatch)
	for i := range batch {
		batch[i] = stats
	}
	for i := 0; i < probeBatches; i++ {
		s := t.begin("core.CallSrvBatch")
		resps, err := st.CallSrvBatch(batch)
		t.end(s)
		if err != nil {
			return fmt.Errorf("CallSrvBatch: %w", err)
		}
		for _, r := range resps {
			if r.Status != core.StatusOK {
				return fmt.Errorf("CallSrvBatch: status %d", r.Status)
			}
		}
	}
	rec := []byte(fmt.Sprintf("perfbench probe seed %d", seed))
	for i := 0; i < probeSrv; i++ {
		s := t.begin("vlog.append")
		err := st.AuditEmit(rec)
		t.end(s)
		if err != nil {
			return fmt.Errorf("AuditEmit: %w", err)
		}
		if err := w.log.check(); err != nil {
			return err
		}
	}
	return nil
}

// libcProbe calls open, lseek, write, lseek, read and close on the probe
// file probeCalls times, checking each result, with one span per call.
func libcProbe(lc sdk.Libc, t *tracer, names callNames) error {
	val := make([]byte, kvValLen)
	got := make([]byte, kvValLen)
	for i := 0; i < probeCalls; i++ {
		for j := range val {
			val[j] = byte(i + j)
		}
		s := t.begin(names.open)
		fd, err := lc.Open(probePath, kernel.ORdwr, 0)
		t.end(s)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		reqs := []kvReq{{put: true, val: val}, {}}
		if err := runBatch(lc, t, names, fd, reqs, [][]byte{nil, got}); err != nil {
			return err
		}
		if !bytes.Equal(got, val) {
			return fmt.Errorf("read back %x, wrote %x", got, val)
		}
		s = t.begin(names.close)
		err = lc.Close(fd)
		t.end(s)
		if err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	return nil
}

// perLayer fills the traced run's metrics: span medians, the warm-up's
// exact counters, Go runtime deltas and the tracing overhead.
func perLayer(m map[string]metric, plain, traced loopResult, t *tracer, exact ledger, ops int, final ledger) {
	med := func(name string) float64 { return median(durationsUS(t.spans, name)) }
	for _, c := range []string{"open", "close", "read", "write", "lseek"} {
		m["sdk.call_us."+c] = metric{med("sdk." + c), "us"}
		m["kernel.call_us."+c] = metric{med("kernel." + c), "us"}
	}
	m["core.idcb_call_us"] = metric{med("core.CallSrv"), "us"}
	m["core.ring_batch_us"] = metric{med("core.CallSrvBatch"), "us"}
	m["vlog.append_us"] = metric{med("vlog.append"), "us"}
	m["chn.send_us"] = metric{med("chn.send"), "us"}
	m["chn.recv_us"] = metric{med("chn.recv"), "us"}
	m["chn.deliver_us"] = metric{med("chn.deliver"), "us"}
	m["cvm.fleet_step_us"] = metric{perCount(t, "cvm.Fleet.Run"), "us"}

	per := func(c int) float64 { return float64(exact[c]) / float64(ops) }
	m["mc.replays_per_op"] = metric{per(cReplays), "count"}
	m["mc.dedup_hit_ratio"] = metric{ratio(exact[cDedupHits], exact[cBranches]), "ratio"}
	m["hv.domain_switches_per_op"] = metric{per(cDomainSwitches), "count"}
	m["snp.tlb_hit_ratio"] = metric{ratio(exact[cTLBHits], exact[cTLBHits]+exact[cTLBMisses]), "ratio"}
	m["vlog.records_per_op"] = metric{per(cVlogRecords), "count"}
	m["vlog.dropped"] = metric{float64(final[cVlogDropped]), "count"}
	m["cvm.fleet_steps_per_op"] = metric{per(cFleetSteps), "count"}
	m["cvm.fleet_idle_jumps_per_op"] = metric{per(cIdleJumps), "count"}
	m["fabric.frames_per_op"] = metric{per(cFrames), "count"}
	m["obs.events_per_op"] = metric{per(cEvents), "count"}

	m["go.alloc_kb_per_op"] = metric{float64(plain.allocBytes) / 1024 / float64(plain.attempted), "kB"}
	m["go.gc_per_kop"] = metric{float64(plain.gcs) * 1000 / float64(plain.attempted), "count"}

	m["trace.untraced_ops_per_s"] = metric{plain.opsPerS(), "1/s"}
	m["trace.traced_ops_per_s"] = metric{traced.opsPerS(), "1/s"}
	m["trace.overhead_pct"] = metric{100 * (plain.opsPerS()/traced.opsPerS() - 1), "%"}
}

// perCount is the summed self time of the spans named name divided by
// the summed work counts attached to them, in microseconds per unit.
func perCount(t *tracer, name string) float64 {
	self := selfTimes(t.spans)
	var ns, n int64
	for i, s := range t.spans {
		if s.name == name {
			ns += self[i]
			n += s.count
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
