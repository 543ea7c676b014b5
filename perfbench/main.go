// Command perfbench is the repository's benchmark: it drives the Veil
// simulator through its public entry points on three workloads
// (mc-explore, enclave-kv, fleet-echo), checks every op's output, and
// prints one JSON result line. See README.md for the workloads, the
// metrics and how to run it.
//
//	go run . --workload enclave-kv --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"veil/internal/cvm"
)

// instance is one set-up workload. The harness calls prepare, run and
// verify once per op; only run is timed.
type instance interface {
	// prepare generates op number op's seeded input.
	prepare(op int) error
	// run executes the op, recording spans into t (nil when untraced).
	run(t *tracer) error
	// verify checks the op's outputs and does operator upkeep.
	verify() error
	// ledger returns the instance's cumulative exact counters.
	ledger() ledger
	release()
}

type workload struct {
	name  string
	setup func(seed int64) (instance, error)
	// warmup is how many ops every setup runs before measuring. They are
	// the determinism window: the exact metrics are taken over them.
	warmup int
}

var workloads = []workload{
	{name: "mc-explore", setup: func(s int64) (instance, error) { return setupMC(s) }, warmup: 4},
	{name: "enclave-kv", setup: func(s int64) (instance, error) { return setupKV(s) }, warmup: 64},
	{name: "fleet-echo", setup: func(s int64) (instance, error) { return setupFleet(s) }, warmup: 48},
}

// setupReps is how many times a run sets the workload up from scratch;
// setup_s is the median, and the warm-up's exact counters must agree
// across all of them.
const setupReps = 5

// Exact counters: virtual cycles and event counts that are a pure
// function of the seed. A ledger holds one value per counter.
const (
	cVCycles = iota
	cDomainSwitches
	cVlogRecords
	cVlogDropped
	cFleetSteps
	cIdleJumps
	cFrames
	cEvents
	cTLBHits
	cTLBMisses
	cReplays
	cBranches
	cDedupHits
	numCounters
)

var counterNames = [numCounters]string{
	"vcycles", "domain_switches", "vlog_records", "vlog_dropped", "fleet_steps", "idle_jumps",
	"frames", "events", "tlb_hits", "tlb_misses", "replays", "branches", "dedup_hits",
}

type ledger [numCounters]uint64

// addMachine adds one CVM's counters.
func (l *ledger) addMachine(c *cvm.CVM) {
	l[cDomainSwitches] += c.M.Trace().DomainSwitches
	ms := c.M.MemStats()
	l[cTLBHits] += ms.TLBHits
	l[cTLBMisses] += ms.TLBMisses
	if f := c.M.Flight(); f != nil {
		l[cEvents] += uint64(f.Len()) + f.Dropped()
	}
	l[cVlogDropped] += c.LOG.Dropped()
}

func (l ledger) sub(o ledger) ledger {
	for i := range l {
		l[i] -= o[i]
	}
	return l
}

func (l ledger) add(o ledger) ledger {
	for i := range l {
		l[i] += o[i]
	}
	return l
}

func (l ledger) String() string {
	var b strings.Builder
	for i, v := range l {
		fmt.Fprintf(&b, "%s=%d ", counterNames[i], v)
	}
	return strings.TrimSpace(b.String())
}

// detReader is a deterministic io.Reader for key material.
type detReader struct{ r *rand.Rand }

func (d detReader) Read(p []byte) (int, error) { return d.r.Read(p) }

func seededReader(seed int64) detReader { return detReader{r: rand.New(rand.NewSource(seed))} }

// opRand returns the generator for op number op of a seeded run: every
// op's input depends only on (seed, op).
func opRand(seed int64, op int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mc-explore, enclave-kv or fleet-echo")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := mainErr(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/perfbench"

func mainErr(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(seconds * float64(time.Second))

	inst, setupS, exact, err := setUp(w, seed)
	if err != nil {
		return fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer inst.release()
	res := result{Metrics: map[string]metric{}}
	var probeErr error

	if !traced {
		lr := measure(inst, w.warmup, dur, nil, w.name)
		res.Attempted, res.Failed = lr.attempted, lr.failed
		if err := endToEnd(res.Metrics, lr, setupS, exact, w.warmup); err != nil {
			return err
		}
		logf("%s seed %d: %d ops, tail %v", w.name, seed, lr.attempted, lr.tail)
		logf("window op p50s (ms): %.1f", lr.windowP50s())
	} else {
		// Untraced, then traced: the ops/s ratio is the tracing overhead.
		plain := measure(inst, w.warmup, dur/2, nil, w.name)
		t := newTracer()
		tr := measure(inst, w.warmup+plain.attempted, dur/2, t, w.name)
		res.Attempted, res.Failed = plain.attempted+tr.attempted, plain.failed+tr.failed
		if probeErr = probe(res.Metrics, inst, seed, t); probeErr != nil {
			logf("probe failed: %v", probeErr)
		}
		perLayer(res.Metrics, plain, tr, t, exact, w.warmup, inst.ledger())
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, "spans-"+w.name+".json")
		if err := writeChromeTrace(path, t.spans); err != nil {
			return err
		}
		logf("%s seed %d: %d spans written to %s", w.name, seed, len(t.spans), path)
	}
	res.Correct = res.Failed == 0 && probeErr == nil
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setUp sets the workload up setupReps times, each time from a fresh boot
// with the same seed followed by the warm-up ops. It returns the last
// instance, the median setup time and the warm-up's exact counters, and
// fails if any two setups disagree on them.
func setUp(w *workload, seed int64) (instance, float64, ledger, error) {
	var times []float64
	var inst instance
	var exact ledger
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.release()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			// inst may hold a typed nil pointer; never release it.
			return nil, 0, ledger{}, err
		}
		var l ledger
		for op := 0; op < w.warmup; op++ {
			d, err := step(inst, op, nil)
			if err != nil {
				inst.release()
				return nil, 0, ledger{}, fmt.Errorf("warm-up op %d: %w", op, err)
			}
			l = l.add(d)
		}
		times = append(times, time.Since(start).Seconds())
		if rep > 0 && l != exact {
			inst.release()
			return nil, 0, ledger{}, fmt.Errorf("determinism: setup %d's warm-up counters {%v} differ from {%v}", rep, l, exact)
		}
		exact = l
	}
	// Start the measured phase from a collected heap, so neither peak RSS
	// nor the first GC pause depends on how setup's garbage lined up.
	logf("setup times %.3f s", times)
	runtime.GC()
	debug.FreeOSMemory()
	return inst, median(times), exact, nil
}

// step runs one untimed op and returns the change in exact counters
// across its run.
func step(inst instance, op int, t *tracer) (ledger, error) {
	if err := inst.prepare(op); err != nil {
		return ledger{}, err
	}
	before := inst.ledger()
	if err := inst.run(t); err != nil {
		return ledger{}, err
	}
	d := inst.ledger().sub(before)
	return d, inst.verify()
}

// Measurement windows: the closed loop is cut into windowDur slices of
// wall time, and throughput, median latency and peak RSS are medians over
// them. On a 2-vCPU KVM guest (Xeon, Sapphire Rapids) a 64 MiB
// random-access probe ran at either its best time or twice it, switching
// second by second with co-tenant load; a minority of such seconds cannot
// move a median over windows, where a whole-run mean would follow them.
const windowDur = time.Second

// window holds the loop iterations that started in one windowDur slice.
// An iteration is one op plus its input generation and output check, so
// wall covers everything the client does, collections included.
type window struct {
	ops   int
	wall  time.Duration
	lat   []float64
	rssMB float64 // the largest RSS sampled after an op of the window
}

type loopResult struct {
	lat               []float64 // per-op host latency, µs
	windows           []window
	wall              time.Duration
	attempted, failed int
	tail              tail
	maxRSSMB          float64
	allocBytes        uint64
	gcs               uint64
}

// measure runs the closed loop (one client, next op as soon as the last
// one is checked) for d, numbering ops from first. A traced loop also
// stops once the tracer is full. The runtime collects garbage on its own
// schedule; collection work falls inside the iterations it interrupts.
func measure(inst instance, first int, d time.Duration, t *tracer, name string) loopResult {
	var lr loopResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := newRSSReader()
	defer rss.close()
	begin := time.Now()
	for op := first; time.Since(begin) < d && !t.full(); op++ {
		iter := time.Now()
		lr.attempted++
		wi := int(iter.Sub(begin) / windowDur)
		for len(lr.windows) <= wi {
			lr.windows = append(lr.windows, window{})
		}
		w := &lr.windows[wi]
		err := inst.prepare(op)
		if err == nil {
			root := t.beginOp(name, op)
			start := time.Now()
			err = inst.run(t)
			us := float64(time.Since(start).Nanoseconds()) / 1e3
			t.endOp(root)
			lr.lat = append(lr.lat, us)
			w.lat = append(w.lat, us)
			if err == nil {
				err = inst.verify()
			}
		}
		if err != nil {
			lr.fail(op, err)
		}
		mb := rss.mb()
		w.rssMB = max(w.rssMB, mb)
		lr.maxRSSMB = max(lr.maxRSSMB, mb)
		el := time.Since(iter)
		w.ops++
		w.wall += el
		lr.wall += el
	}
	runtime.ReadMemStats(&ms1)
	lr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	lr.gcs = uint64(ms1.NumGC - ms0.NumGC)
	lr.tail, _ = tailOf(lr.lat)
	return lr
}

func (lr *loopResult) fail(op int, err error) {
	lr.failed++
	if lr.failed <= 5 {
		logf("op %d failed: %v", op, err)
	}
}

// fullWindows returns the windows whose iterations took at least half a
// window of wall time; a run too short for any falls back to one window
// of all iterations.
func (lr loopResult) fullWindows() []window {
	var out []window
	for _, w := range lr.windows {
		if w.wall >= windowDur/2 && len(w.lat) > 0 {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = []window{{ops: lr.attempted, wall: lr.wall, lat: lr.lat, rssMB: lr.maxRSSMB}}
	}
	return out
}

// opsPerS is the median over windows of ops completed per second of the
// loop's wall time.
func (lr loopResult) opsPerS() float64 {
	var xs []float64
	for _, w := range lr.fullWindows() {
		if w.wall > 0 {
			xs = append(xs, float64(w.ops)/w.wall.Seconds())
		}
	}
	return median(xs)
}

// p50 is the median over windows of each window's median op latency.
func (lr loopResult) p50() float64 { return median(lr.windowP50s()) * 1e3 }

// windowP50s returns each full window's median op latency, in ms.
func (lr loopResult) windowP50s() []float64 {
	var xs []float64
	for _, w := range lr.fullWindows() {
		xs = append(xs, median(w.lat)/1e3)
	}
	return xs
}

// peakRSS is the median over windows of each window's largest RSS: a
// rare spike, such as a collection that drops the machine-backing pool
// and makes the next boot allocate afresh, cannot set it alone.
func (lr loopResult) peakRSS() float64 {
	var xs []float64
	for _, w := range lr.fullWindows() {
		xs = append(xs, w.rssMB)
	}
	return median(xs)
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m map[string]metric, lr loopResult, setupS float64, exact ledger, ops int) error {
	if lr.attempted == 0 {
		return errors.New("no op completed in the measured time")
	}
	m["setup_s"] = metric{setupS, "s"}
	m["ops_per_s"] = metric{lr.opsPerS(), "1/s"}
	m["op_p50_us"] = metric{lr.p50(), "us"}
	m["op_tail_us"] = metric{lr.tail.Value, "us"}
	m["peak_rss_mb"] = metric{lr.peakRSS(), "MB"}
	m["vcycles_per_op"] = metric{float64(exact[cVCycles]) / float64(ops), "cycles"}
	return nil
}

// rssReader samples the process's resident set from /proc/self/statm.
type rssReader struct {
	f   *os.File
	buf []byte
}

func newRSSReader() *rssReader {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		logf("peak RSS unavailable: %v", err)
	}
	return &rssReader{f: f, buf: make([]byte, 128)}
}

func (r *rssReader) mb() float64 {
	if r.f == nil {
		return 0
	}
	n, err := r.f.ReadAt(r.buf, 0)
	if n == 0 && err != nil {
		return 0
	}
	fields := strings.Fields(string(r.buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

func (r *rssReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
