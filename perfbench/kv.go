package main

// enclave-kv: one Veil CVM serving a key/value file to a VeilS-Enc
// enclave. Boot happens only in setup, so an op isolates the steady-state
// protected-call path: sdk marshaller → hv domain switch → kernel →
// kaudit → core ring → VeilS-Log, with the snp TLB and spans underneath.

import (
	"bytes"
	"fmt"
	"math/rand"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
)

const (
	kvKeys   = 1024
	kvValLen = 64
	kvPath   = "/tmp/perfbench-kv"
	// kvBatch is the requests in one client op, about 15 ms of host time
	// on a 2-CPU x86 host. Host preemption gaps of 3-10 ms hit a process
	// there about ten times in 20 s, so with millisecond ops the tail
	// latency measured those gaps rather than the system.
	kvBatch = 2048
	// kvGetPerMil is the share of GETs in a batch, in thousandths.
	kvGetPerMil = 700
	// kvZipfS skews key popularity (Zipf exponent): a few hot keys, a
	// long cold tail.
	kvZipfS = 1.1
	// kvAuditBatch is the kaudit group-commit size: audit records cross
	// to VeilS-Log through the core ring in groups of this many.
	kvAuditBatch = 16
	// kvLogPages sizes VeilS-Log's store (1 MiB). The operator drains it
	// once it is half full (see drainLog), so no run can fill it.
	kvLogPages = 256
	kvMemBytes = 64 << 20
)

// kvReq is one client request. A PUT writes val; a GET must read back the
// value of the last PUT to key (or the seeded initial value).
type kvReq struct {
	put bool
	key int
	val []byte
}

// kvModel is the benchmark's reference store: the flat file image the
// enclave should see.
type kvModel struct{ data []byte }

func newKVModel(seed int64) *kvModel {
	m := &kvModel{data: make([]byte, kvKeys*kvValLen)}
	rand.New(rand.NewSource(seed)).Read(m.data)
	return m
}

func (m *kvModel) value(key int) []byte { return m.data[key*kvValLen : (key+1)*kvValLen] }

// apply checks one executed batch against the model in request order and
// applies its PUTs: got[i] is what GET i read.
func (m *kvModel) apply(reqs []kvReq, got [][]byte) error {
	for i, r := range reqs {
		if r.put {
			copy(m.value(r.key), r.val)
			continue
		}
		if want := m.value(r.key); !bytes.Equal(got[i], want) {
			return fmt.Errorf("GET key %d (request %d) read %x, want %x", r.key, i, got[i], want)
		}
	}
	return nil
}

// kvGen draws seeded batches. Buffers are reused from op to op.
type kvGen struct {
	seed int64
	reqs []kvReq
}

func newKVGen(seed int64) *kvGen {
	g := &kvGen{seed: seed, reqs: make([]kvReq, kvBatch)}
	for i := range g.reqs {
		g.reqs[i].val = make([]byte, kvValLen)
	}
	return g
}

// batch fills the requests of op number op.
func (g *kvGen) batch(op int) []kvReq {
	r := opRand(g.seed, op)
	z := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
	for i := range g.reqs {
		q := &g.reqs[i]
		q.key = int(z.Uint64())
		q.put = r.Intn(1000) >= kvGetPerMil
		if q.put {
			r.Read(q.val)
		}
	}
	return g.reqs
}

// kvClient is the enclave program. Main runs the pending batch through
// the enclave's Libc; every call is one span.
type kvClient struct {
	fd   int
	reqs []kvReq
	got  [][]byte
	tr   *tracer
	err  error
}

func (k *kvClient) Main(lc sdk.Libc, args []string) int {
	if len(args) == 1 && args[0] == "open" {
		k.fd, k.err = lc.Open(kvPath, kernel.ORdwr, 0)
		if k.err != nil {
			return 1
		}
		return 0
	}
	if len(args) == 1 && args[0] == "probe" {
		k.err = libcProbe(lc, k.tr, sdkCalls)
	} else {
		k.err = runBatch(lc, k.tr, sdkCalls, k.fd, k.reqs, k.got)
	}
	if k.err != nil {
		return 1
	}
	return 0
}

// callNames are the span names of one libc backend's calls, built once so
// the untraced path does not concatenate strings per call.
type callNames struct{ open, close, read, write, lseek string }

func namesFor(layer string) callNames {
	return callNames{layer + ".open", layer + ".close", layer + ".read", layer + ".write", layer + ".lseek"}
}

var (
	sdkCalls    = namesFor("sdk")
	kernelCalls = namesFor("kernel")
)

// runBatch issues each request as lseek + read (GET) or lseek + write
// (PUT), recording one span per call.
func runBatch(lc sdk.Libc, t *tracer, names callNames, fd int, reqs []kvReq, got [][]byte) error {
	for i, r := range reqs {
		off := int64(r.key * kvValLen)
		s := t.begin(names.lseek)
		pos, err := lc.Lseek(fd, off, kernel.SeekSet)
		t.end(s)
		if err != nil || pos != off {
			return fmt.Errorf("lseek to %d: got %d, %v", off, pos, err)
		}
		var n int
		if r.put {
			s = t.begin(names.write)
			n, err = lc.Write(fd, r.val)
		} else {
			s = t.begin(names.read)
			n, err = lc.Read(fd, got[i])
		}
		t.end(s)
		if err != nil || n != kvValLen {
			return fmt.Errorf("request %d (put=%v key %d): %d bytes, %v", i, r.put, r.key, n, err)
		}
	}
	return nil
}

// kvInst is a booted enclave-kv deployment.
type kvInst struct {
	c     *cvm.CVM
	host  *kernel.Process
	app   *sdk.AppRuntime
	cl    *kvClient
	model *kvModel
	gen   *kvGen
	log   *logDrain
}

func setupKV(seed int64) (*kvInst, error) {
	c, err := cvm.Boot(cvm.Options{
		MemBytes: kvMemBytes, VCPUs: 1, Veil: true, LogPages: kvLogPages,
		AuditRules: kernel.DefaultRuleset(),
		Rand:       seededReader(seed),
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	c.K.Audit().SetBatch(kvAuditBatch)
	w := &kvInst{c: c, model: newKVModel(seed), gen: newKVGen(seed)}
	if w.log, err = newLogDrain(c, seed); err != nil {
		w.release()
		return nil, err
	}

	// Seed the file from the untrusted host process, then hand it to the
	// enclave.
	w.host = c.K.Spawn("kv-host")
	d := &sdk.DirectLibc{K: c.K, P: w.host}
	fd, err := d.Open(kvPath, kernel.OCreat|kernel.ORdwr, 0o600)
	if err != nil {
		w.release()
		return nil, fmt.Errorf("create %s: %w", kvPath, err)
	}
	if n, err := d.Write(fd, w.model.data); err != nil || n != len(w.model.data) {
		w.release()
		return nil, fmt.Errorf("seed %s: %d bytes, %v", kvPath, n, err)
	}
	if err := d.Close(fd); err != nil {
		w.release()
		return nil, err
	}

	w.cl = &kvClient{got: make([][]byte, kvBatch)}
	for i := range w.cl.got {
		w.cl.got[i] = make([]byte, kvValLen)
	}
	if w.app, err = sdk.LaunchEnclave(c, w.host, w.cl, sdk.EnclaveConfig{RegionPages: 16}); err != nil {
		w.release()
		return nil, fmt.Errorf("launch enclave: %w", err)
	}
	if rc, err := w.app.Enter("open"); err != nil || rc != 0 {
		w.release()
		return nil, fmt.Errorf("enclave open: rc %d, %v, %v", rc, err, w.cl.err)
	}
	return w, nil
}

func (w *kvInst) prepare(op int) error {
	w.cl.reqs = w.gen.batch(op)
	w.cl.err = nil
	return nil
}

func (w *kvInst) run(t *tracer) error {
	w.cl.tr = t
	rc, err := w.app.Enter()
	w.cl.tr = nil
	if err != nil {
		return fmt.Errorf("enclave entry: %w", err)
	}
	if rc != 0 || w.cl.err != nil {
		return fmt.Errorf("enclave batch: rc %d: %v", rc, w.cl.err)
	}
	return nil
}

func (w *kvInst) verify() error {
	if err := w.model.apply(w.cl.reqs, w.cl.got); err != nil {
		return err
	}
	return w.log.check()
}

func (w *kvInst) ledger() ledger {
	var l ledger
	l[cVCycles] = w.c.M.Clock().Cycles()
	l.addMachine(w.c)
	l[cVlogRecords] = w.log.records()
	return l
}

func (w *kvInst) release() { w.c.M.Release() }

// logDrain is the operator of one CVM's VeilS-Log: it verifies the store
// never drops a record and clears it over the attested user channel once
// it is half full, as the paper requires of a deployment (§6.3).
type logDrain struct {
	c       *cvm.CVM
	user    *core.RemoteUser
	cleared uint64 // records removed by earlier clears
	drainAt uint64
}

// logRecordMax bounds one audit record's size in the store (the record
// text plus its length prefix); drain thresholds assume it.
const logRecordMax = 160

func newLogDrain(c *cvm.CVM, seed int64) (*logDrain, error) {
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(), seededReader(seed+1))
	if err != nil {
		return nil, err
	}
	if err := user.Connect(c.Stub); err != nil {
		return nil, fmt.Errorf("attest log operator: %w", err)
	}
	return &logDrain{c: c, user: user, drainAt: c.LOG.Capacity() / 2 / logRecordMax}, nil
}

// records is the number of records VeilS-Log has accepted since boot.
func (d *logDrain) records() uint64 { return d.cleared + d.c.LOG.Count() }

// check fails if VeilS-Log ever dropped a record, and drains the store
// when it passes the threshold.
func (d *logDrain) check() error {
	if n := d.c.LOG.Dropped(); n != 0 {
		return fmt.Errorf("VeilS-Log dropped %d records", n)
	}
	n := d.c.LOG.Count()
	if n < d.drainAt {
		return nil
	}
	reply, err := d.user.Request(d.c.Stub, append([]byte{core.SvcLOG}, "CLEAR"...))
	if err != nil {
		return fmt.Errorf("clear VeilS-Log: %w", err)
	}
	if string(reply) != "cleared" || d.c.LOG.Count() != 0 {
		return fmt.Errorf("clear VeilS-Log: reply %q, %d records left", reply, d.c.LOG.Count())
	}
	d.cleared += n
	return nil
}
