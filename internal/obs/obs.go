// Package obs is the simulator's observability substrate: a sharded
// per-VCPU ring-buffer event tracer plus a metrics registry (monotonic
// counters, log₂-bucketed latency histograms and a per-cost-kind
// cycle-attribution table), with exporters for Chrome trace_event JSON,
// Prometheus text exposition, collapsed flame-graph stacks and a compact
// human summary.
//
// The package is deliberately zero-dependency within the repository: it
// knows nothing about SEV-SNP, VMPLs or the cost model. Producers (the snp
// machine and the layers above it) stamp events with the virtual cycle
// clock and whatever identifiers they own; consumers (cmd/veil-sim,
// cmd/veil-bench, tests) pick the exporter they need. Everything is
// deterministic: identical simulations produce byte-identical exports.
//
// # The v3 record path
//
// Recording is sharded: each VCPU owns a private event ring, and the hot
// path is a sequence stamp plus one fixed-size slot write — no global
// ring, no lock, and no per-event metrics folding. Aggregation is
// deferred: an event's contribution to the counters and histograms is
// folded in either when the event is evicted from its shard (the ring
// wrapped) or when Metrics() scans the retained events at export time.
// Folded plus scanned together always equal exactly what eager per-event
// aggregation would have produced, so eviction never loses metrics — only
// raw events.
//
// At export, Events() merges the shards back into one virtual-time
// ordered stream using the per-event sequence number, so every exporter
// (and every golden file pinned against one) sees the same byte-identical
// order a single global ring would have produced.
//
// A nil *Recorder is a valid recorder that records nothing; every method
// has a nil fast path that performs no allocation, so the simulator can be
// instrumented unconditionally and pay nothing when tracing is off.
package obs

import (
	"sort"
)

// Class is the event taxonomy: one value per kind of architectural or
// framework event the simulator emits. The taxonomy mirrors the paper's
// evaluation (§9): exit/enter pairs, domain switches, RMP instructions,
// syscalls and audit relays are exactly the events whose rates and costs
// the figures report.
type Class uint8

const (
	// ClassVMGEXIT is a non-automatic guest exit (VMSA state save).
	ClassVMGEXIT Class = iota
	// ClassVMENTER is a VMENTER resume (VMSA state restore).
	ClassVMENTER
	// ClassVMCALL is a plain exit on a non-SNP VM (comparison path).
	ClassVMCALL
	// ClassRoundTrip spans a full VMGEXIT→…→VMENTER service round trip.
	ClassRoundTrip
	// ClassDomainSwitch spans one hypervisor-relayed domain switch
	// (Arg1/Arg2 carry the from/to VMPL).
	ClassDomainSwitch
	// ClassRMPAdjust is one RMPADJUST (Arg1 = page, Arg2 = target
	// VMPL<<8 | permission bits).
	ClassRMPAdjust
	// ClassPValidate is one PVALIDATE (Arg1 = page, Arg2 = 1 when
	// validating, 0 when rescinding).
	ClassPValidate
	// ClassSyscall is a guest-kernel syscall entry (Arg1 = syscall
	// number).
	ClassSyscall
	// ClassAudit is one audit-record emission (Arg1 = record bytes).
	ClassAudit
	// ClassInterrupt is a hardware-interrupt injection (automatic exit).
	ClassInterrupt
	// ClassEnclaveExit is an enclave → untrusted world transition.
	ClassEnclaveExit
	// ClassFault is an architectural fault; for the #NPF kind this is the
	// terminal event of a halted CVM (Arg1 = phys, Arg2 = fault kind).
	ClassFault
	// ClassPageState is a hypervisor page-state change batch (Arg1 =
	// first page, Arg2 = count<<1 | assign bit).
	ClassPageState
	// ClassService spans one protected-service invocation through the
	// monitor's dispatcher (Arg1 = service id, Arg2 = operation code).
	ClassService
	// ClassEnclaveEnter spans one SDK enclave call: from the scheduler
	// hook through the relayed domain switch to the enclave's return
	// (Arg1 = enclave tag).
	ClassEnclaveEnter
	// ClassDenied is a refused-but-survivable operation: a sanitizer
	// rejection, a blocked hypervisor access, a policy refusal (Arg1/Arg2
	// carry producer-specific context, see DeniedReason).
	ClassDenied
	// ClassInvariant is a security-invariant violation reported by the
	// online auditor (Arg1 = check index, Arg2 = violation count). Clean
	// runs never record one.
	ClassInvariant
	// ClassRingSubmit is one descriptor posted to a service submission
	// ring by the OS domain (Arg1 = slot sequence number, Arg2 = service
	// id). No domain switch happens at submit time — that is the point.
	ClassRingSubmit
	// ClassRingDrain spans one doorbell-triggered batch drain inside the
	// monitor domain (Arg1 = descriptors drained, Arg2 = descriptors
	// refused by re-validation).
	ClassRingDrain
	// ClassSchedSlice spans one SMP-scheduler slice: a bounded burst of
	// work charged to one VCPU (Arg1 = VCPU, Arg2 = slice kind: 0 = task,
	// 1 = deferred ring drain).
	ClassSchedSlice
	// ClassNetTx is one cross-CVM frame leaving this machine with trace
	// context attached (Arg1 = the fleet trace ref, Arg2 = the sender's
	// machine-qualified span ref — see PackTraceRef). The matching
	// ClassNetRx on the receiving machine carries the identical pair,
	// which is how fleet exporters join the two ends of a wire hop.
	ClassNetTx
	// ClassNetRx is one cross-CVM frame arriving at this machine, stamped
	// with the trace context the frame carried (Arg1/Arg2 as ClassNetTx).
	// Its Parent is the local delivery invocation's span, so denial
	// evidence recorded while processing the frame joins to the trace.
	ClassNetRx

	// NumClasses is the number of defined event classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"vmgexit", "vmenter", "vmcall", "vmgexit-roundtrip", "domain-switch",
	"rmpadjust", "pvalidate", "syscall", "audit-emit", "interrupt",
	"enclave-exit", "fault", "page-state", "service", "enclave-enter",
	"denied", "invariant", "ring-submit", "ring-drain", "sched-slice",
	"net-tx", "net-rx",
}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "class(?)"
}

// EventKind distinguishes point-in-time events from duration spans.
type EventKind uint8

const (
	// Instant is a point event; Dur is zero.
	Instant EventKind = iota
	// Span is a duration event; TS is the *end* timestamp and Dur the
	// length, both in virtual cycles.
	Span
)

// Event is one recorded trace event. The struct is fixed-size and
// string-free so recording never allocates.
type Event struct {
	// TS is the virtual-cycle timestamp. For spans it is the end of the
	// span (the event is recorded when the operation completes).
	TS uint64
	// Dur is the span length in virtual cycles (zero for instants).
	Dur uint64
	// Arg1, Arg2 carry class-specific payload (see the Class constants).
	Arg1, Arg2 uint64
	// Seq is the global record sequence number, stamped by the Recorder
	// at Record time (1, 2, 3, …). It is the tiebreak key the export-time
	// shard merge sorts on: the virtual clock is non-decreasing across a
	// run, so ordering by Seq reproduces the exact record order a single
	// global ring would have retained.
	Seq uint64
	// VCPU is the hardware VCPU the event occurred on; it selects the
	// recorder shard the event lands in.
	VCPU int32
	// VMPL is the privilege level of the acting context, or -1 when the
	// producer does not know it.
	VMPL int16
	// Span is the event's own causal identity: non-zero for events that
	// open a node in the request tree (round trips, syscalls, domain
	// switches, service invocations). Parent is the span the event is
	// causally nested under, zero at top level. IDs are allocated
	// monotonically by the producer's SpanTracker, so identical runs
	// assign identical trees.
	Span, Parent uint64
	// Class is the event's taxonomy entry.
	Class Class
	// Kind says whether the event is an Instant or a Span.
	Kind EventKind
}

// Start returns the span's start timestamp (TS for instants).
func (e Event) Start() uint64 { return e.TS - e.Dur }

// DefaultCapacity is the per-shard ring size used when NewRecorder is
// given a non-positive capacity: large enough to hold a full
// small-machine boot sweep plus a demo run (~72 B/event ⇒ ~19 MiB).
const DefaultCapacity = 1 << 18

// shardAgg is the deferred aggregation state of one shard: per-class
// event counts, per-class span-duration histograms, per-service dispatch
// latency and the per-request (root span) latency distribution. A shard
// keeps one shardAgg holding everything evicted from its ring; Metrics()
// copies it and folds the retained events on top, so the snapshot always
// covers the full run.
type shardAgg struct {
	total    uint64
	counts   [NumClasses]uint64
	spans    [NumClasses]Histogram
	svc      [MaxServices]Histogram
	requests Histogram
}

// fold adds one event's metrics contribution.
func (a *shardAgg) fold(e *Event) {
	a.total++
	if e.Class >= NumClasses {
		return
	}
	a.counts[e.Class]++
	if e.Kind != Span {
		return
	}
	a.spans[e.Class].Observe(e.Dur)
	if e.Class == ClassService && e.Arg1 < MaxServices {
		a.svc[e.Arg1].Observe(e.Dur)
	}
	// Root spans feed the per-request latency distribution — except
	// enclave sessions: one ClassEnclaveEnter span covers an entire
	// workload run, and folding it in pulls the request Mean orders of
	// magnitude above P99 (one session ≠ one request). Sessions are still
	// counted and bucketed under their own class histogram above.
	if e.Span != 0 && e.Parent == 0 && e.Class != ClassEnclaveEnter {
		a.requests.Observe(e.Dur)
	}
}

// merge accumulates another aggregate into this one.
func (a *shardAgg) merge(o *shardAgg) {
	a.total += o.total
	for c := 0; c < int(NumClasses); c++ {
		a.counts[c] += o.counts[c]
		a.spans[c].Merge(&o.spans[c])
	}
	for s := 0; s < MaxServices; s++ {
		a.svc[s].Merge(&o.svc[s])
	}
	a.requests.Merge(&o.requests)
}

// shard is one VCPU's private event ring plus its evicted-event
// aggregate. Exactly one producer writes a shard at a time (the VCPU the
// simulator is currently stepping), so no slot is ever contended.
type shard struct {
	buf     []Event
	next    int // next write position
	full    bool
	evicted shardAgg  // metrics of events that rolled out of the ring
	ringLat Histogram // submit→complete ring latency, fed by RecordRingLatency
}

func newShard(capacity int) *shard {
	sh := &shard{buf: make([]Event, capacity)}
	// Fault the ring in now, one touch per page: large rings come from the
	// OS as unmapped zero pages, and taking ~16 first-touch faults per MiB
	// lazily would land inside whatever window the caller is measuring.
	for i := 0; i < capacity; i += 32 {
		sh.buf[i].TS = 0
	}
	return sh
}

func (sh *shard) len() int {
	if sh.full {
		return len(sh.buf)
	}
	return sh.next
}

// events appends the shard's retained events, oldest first, to out.
func (sh *shard) events(out []Event) []Event {
	if sh.full {
		out = append(out, sh.buf[sh.next:]...)
	}
	return append(out, sh.buf[:sh.next]...)
}

// Recorder is the sharded event ring plus its metrics registry. It is
// single-threaded like the machine it instruments.
//
// A nil *Recorder is valid: Record, Charge and the accessors all no-op.
type Recorder struct {
	shards   []*shard
	shardCap int
	seq      uint64 // last assigned record sequence number

	// lastVCPU/lastShard cache the most recent shard lookup: the
	// simulator steps one VCPU for many events at a time, so the common
	// Record skips the slice indexing entirely.
	lastVCPU  int32
	lastShard *shard

	// kindCycles is the cycle-attribution table fed by Charge. Producers
	// that already keep their own attribution (the virtual clock does)
	// should register it with SetCycleSource instead: the snapshot then
	// reads the producer's table at export time and the per-charge mirror
	// call disappears from the hot path entirely.
	kindCycles [MaxKinds]uint64
	cycleSrc   func() []uint64
	kindNames  []string
	svcNames   []string

	// aux holds pull-based sources of producer-owned named counters (e.g.
	// the snp machine's TLB statistics, the invariant auditor's check
	// totals). Exporters read them at write time, so producers pay
	// nothing on their hot paths. gauges are the same for derived
	// floating-point values (rates, ratios).
	aux    []func() (names []string, values []uint64)
	gauges []func() (names []string, values []float64)

	// snapshot memoizes the last Metrics build. Aggregating a snapshot
	// costs a full retained-ring scan plus a per-shard aggregate copy —
	// tens of microseconds on a warm ring — while the common export burst
	// (Prometheus page + summary + trace from one quiesced recorder, or a
	// scrape endpoint polled between event bursts) asks for the same
	// aggregation several times with nothing recorded in between. The
	// cache is keyed on the sequence counter plus a dirty bit covering
	// every mutation the counter cannot see (ring-latency observations,
	// Charge, the name/source setters, shard reconfiguration); a
	// registered cycle source is re-checked on each hit since its values
	// can move without touching the recorder at all. The recorder never
	// writes into a snapshot it has handed out, so hits return the cached
	// pointer itself — snapshots are immutable, possibly shared, views.
	snapshot  *Metrics
	snapSeq   uint64
	snapDirty bool

	// machine identifies which fleet member this recorder belongs to.
	// Exporters use it as the process dimension (the Chrome trace pid),
	// so merged fleet traces keep one process track per CVM. Zero for
	// single-machine runs, which keeps their exports byte-identical.
	machine int
	// machineSet records whether SetMachine was ever called. Fleet
	// exporters refuse untagged recorders: machine id 0 by default is
	// indistinguishable from machine id 0 by assignment, and merging an
	// untagged recorder would silently interleave it with machine 0.
	machineSet bool
}

// NewRecorder creates a recorder whose shards each hold capacity events
// (DefaultCapacity if capacity <= 0). Shard 0 exists from the start;
// further shards appear the first time an event carries their VCPU id.
// When a shard's ring is full the oldest event is evicted (folded into
// the shard's aggregate) and the drop counter incremented; metrics are
// never dropped.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{shardCap: capacity}
	r.shards = append(r.shards, newShard(capacity))
	r.lastVCPU, r.lastShard = 0, r.shards[0]
	return r
}

// shardOf returns (growing if needed) the shard for VCPU v.
func (r *Recorder) shardOf(v int32) *shard {
	if sh := r.lastShard; sh != nil && v == r.lastVCPU {
		return sh
	}
	i := int(v)
	if i < 0 {
		i = 0
	}
	for i >= len(r.shards) {
		r.shards = append(r.shards, newShard(r.shardCap))
	}
	sh := r.shards[i]
	r.lastVCPU, r.lastShard = v, sh
	return sh
}

// Record appends one event to its VCPU's shard, stamping the global
// sequence number. If the shard ring is full the oldest event is folded
// into the shard's metrics aggregate and overwritten. Recording on a nil
// recorder is a no-op; a live Record never allocates (the zero-alloc pin
// in the tests).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.seq++
	e.Seq = r.seq
	sh := r.shardOf(e.VCPU)
	if sh.full {
		sh.evicted.fold(&sh.buf[sh.next])
	}
	sh.buf[sh.next] = e
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
		sh.full = true
	}
}

// Alloc claims the next ring slot for an event on the given VCPU and
// returns it with Seq stamped: the zero-copy fast path for hot producers,
// who must assign EVERY other field in place (the slot is returned dirty
// — it still holds whatever event occupied it last time around the ring).
// The evicted occupant is folded into the shard's aggregate first, exactly
// as Record would. Unlike the other methods Alloc is NOT nil-safe: the
// producer's own recorder-attached check is the nil gate.
func (r *Recorder) Alloc(vcpu int32) *Event {
	r.seq++
	sh := r.shardOf(vcpu)
	if sh.full {
		sh.evicted.fold(&sh.buf[sh.next])
	}
	e := &sh.buf[sh.next]
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
		sh.full = true
	}
	e.Seq = r.seq
	return e
}

// RecordRingLatency feeds one batched-ring request latency — virtual
// cycles from SubmitSrv to the submitter first observing the completion —
// into the VCPU's shard histogram. It records no event: latency
// distributions must cover the whole run regardless of ring eviction.
// Nil-safe.
func (r *Recorder) RecordRingLatency(vcpu int32, cycles uint64) {
	if r == nil {
		return
	}
	r.snapDirty = true // the sequence counter cannot see this mutation
	r.shardOf(vcpu).ringLat.Observe(cycles)
}

// Charge adds cycles to the attribution table under the producer-defined
// cost kind index (see SetKindNames). Nil-safe.
func (r *Recorder) Charge(kind int, cycles uint64) {
	if r == nil {
		return
	}
	if kind >= 0 && kind < MaxKinds {
		r.kindCycles[kind] += cycles
		r.snapDirty = true // attribution moved without a sequence bump
	}
}

// SetCycleSource registers a pull-based cycle-attribution source read at
// snapshot time (Metrics). When set it replaces the Charge-fed table —
// the natural wiring for a producer whose clock already attributes every
// cycle by kind, since it costs nothing per charge. Nil-safe.
func (r *Recorder) SetCycleSource(src func() []uint64) {
	if r == nil {
		return
	}
	r.cycleSrc = src
	r.snapDirty = true
}

// SetKindNames installs the display names for the attribution table's cost
// kind indexes. Nil-safe.
func (r *Recorder) SetKindNames(names []string) {
	if r == nil {
		return
	}
	r.kindNames = names
	r.snapDirty = true
}

// SetServiceNames installs display names for the per-service latency
// histograms (index = the protocol's service id). Nil-safe.
func (r *Recorder) SetServiceNames(names []string) {
	if r == nil {
		return
	}
	r.svcNames = names
	r.snapDirty = true
}

// SetAuxCounters resets the counter registry to the single given source
// (pass nil to detach everything). Sources are called at export time only.
// Nil-safe.
func (r *Recorder) SetAuxCounters(src func() (names []string, values []uint64)) {
	if r == nil {
		return
	}
	if src == nil {
		r.aux = nil
		return
	}
	r.aux = []func() ([]string, []uint64){src}
}

// AddAuxCounters appends another pull-based counter source; exporters
// concatenate all sources in registration order. Nil-safe.
func (r *Recorder) AddAuxCounters(src func() (names []string, values []uint64)) {
	if r == nil || src == nil {
		return
	}
	r.aux = append(r.aux, src)
}

// AuxCounters returns every registered source's current counters,
// concatenated in registration order. Nil-safe.
func (r *Recorder) AuxCounters() (names []string, values []uint64) {
	if r == nil {
		return nil, nil
	}
	for _, src := range r.aux {
		n, v := src()
		names = append(names, n...)
		values = append(values, v...)
	}
	return names, values
}

// AddAuxGauges appends a pull-based source of derived floating-point
// gauges (rates, ratios) that exporters surface alongside the raw
// counters. Nil-safe.
func (r *Recorder) AddAuxGauges(src func() (names []string, values []float64)) {
	if r == nil || src == nil {
		return
	}
	r.gauges = append(r.gauges, src)
}

// AuxGauges returns every registered gauge source's current values,
// concatenated in registration order. Nil-safe.
func (r *Recorder) AuxGauges() (names []string, values []float64) {
	if r == nil {
		return nil, nil
	}
	for _, src := range r.gauges {
		n, v := src()
		names = append(names, n...)
		values = append(values, v...)
	}
	return names, values
}

// Len returns the number of events currently retained across all shards.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, sh := range r.shards {
		n += sh.len()
	}
	return n
}

// Cap returns the total ring capacity (per-shard capacity × live shards).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.shardCap * len(r.shards)
}

// ShardCap returns the per-shard ring capacity.
func (r *Recorder) ShardCap() int {
	if r == nil {
		return 0
	}
	return r.shardCap
}

// SetMachine tags the recorder with its fleet machine id. Exporters use
// the tag as the process dimension; BootFleet calls this for every
// per-machine recorder it is handed. Nil-safe no-op.
func (r *Recorder) SetMachine(id int) {
	if r == nil {
		return
	}
	r.machine = id
	r.machineSet = true
}

// MachineTagged reports whether SetMachine was ever called. Fleet
// exporters use it to reject recorders that were never assigned a fleet
// identity. Nil-safe.
func (r *Recorder) MachineTagged() bool {
	if r == nil {
		return false
	}
	return r.machineSet
}

// Machine returns the fleet machine id set by SetMachine (0 — the
// single-machine default — otherwise). Nil-safe.
func (r *Recorder) Machine() int {
	if r == nil {
		return 0
	}
	return r.machine
}

// Shards returns the number of live shards (VCPUs seen so far).
func (r *Recorder) Shards() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Total returns how many events have ever been recorded (retained +
// evicted) — the current value of the sequence counter.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Dropped returns how many events were evicted due to ring overflow,
// summed over the shards.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, sh := range r.shards {
		n += sh.evicted.total
	}
	return n
}

// DroppedByClass returns the per-class eviction counts, summed over the
// shards. Nil-safe (returns zeros).
func (r *Recorder) DroppedByClass() [NumClasses]uint64 {
	var out [NumClasses]uint64
	if r == nil {
		return out
	}
	for _, sh := range r.shards {
		for c := 0; c < int(NumClasses); c++ {
			out[c] += sh.evicted.counts[c]
		}
	}
	return out
}

// Events returns the retained events merged across shards into global
// record order (ascending Seq — equivalently virtual-time order with the
// record sequence as tiebreak). The merge is what keeps every exporter
// byte-identical to the single-ring pipeline it replaced.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.appendEvents(make([]Event, 0, r.Len()))
}

// appendEvents is Events with caller-owned storage: the merged stream is
// appended to out (growing it as needed) and returned. The trace
// exporters feed it pooled scratch so a full-ring export reuses one
// buffer instead of reallocating the largest slice of the run each time.
func (r *Recorder) appendEvents(out []Event) []Event {
	base := len(out)
	for _, sh := range r.shards {
		out = sh.events(out)
	}
	if len(r.shards) > 1 {
		merged := out[base:]
		sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	}
	return out
}

// Tail returns the last n events in global record order (all of them when
// fewer are retained). Because every shard retains its own newest events,
// the globally newest n are always present as long as n does not exceed
// the per-shard capacity — the property the flight-recorder shadow relies
// on.
func (r *Recorder) Tail(n int) []Event {
	evs := r.Events()
	if n >= 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Metrics computes the registry snapshot: evicted-event aggregates plus a
// scan over the retained rings, merged across shards. The result is
// exactly what eager per-event folding would have accumulated — eviction
// moves an event's contribution, it never loses it. The snapshot is
// detached: it does not change as further events are recorded.
//
// Consecutive calls with no intervening mutation are served from a
// memoized snapshot (see the snapshot field), so an export burst pays
// for the ring scan once. Snapshots are immutable views and may be
// shared between callers: treat everything reached through one —
// including the histograms — as read-only.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	if m := r.snapshot; m != nil && !r.snapDirty && r.snapSeq == r.seq {
		if r.cycleSrc == nil {
			return m
		}
		// A cycle source can advance without any recorder call (the
		// virtual clock charging cycles that record no event). Re-read
		// it: if nothing moved the cached view is still exact, otherwise
		// refresh just the attribution table on a copy — the ring
		// aggregation itself is still valid.
		src := r.cycleSrc()
		fresh := true
		for i, v := range src {
			if i >= MaxKinds {
				break
			}
			if m.kindCycles[i] != v {
				fresh = false
				break
			}
		}
		if fresh {
			return m
		}
		c := m.clone()
		copy(c.kindCycles[:], src)
		r.snapshot = c
		return c
	}
	m := r.buildMetrics()
	r.snapshot, r.snapSeq, r.snapDirty = m, r.seq, false
	return m
}

// metricsRebuild is Metrics with the memoization bypassed: the snapshot
// is aggregated from scratch on every call. The fmt reference exporters
// use it so the "legacy export pipeline" the hostperf benchmark measures
// keeps the pre-pooling cost model (every exporter re-aggregated),
// not just its bytes. Nil-safe.
func (r *Recorder) metricsRebuild() *Metrics {
	if r == nil {
		return nil
	}
	return r.buildMetrics()
}

// buildMetrics is the uncached snapshot aggregation.
func (r *Recorder) buildMetrics() *Metrics {
	m := &Metrics{
		kindCycles: r.kindCycles,
		kindNames:  r.kindNames,
		svcNames:   r.svcNames,
		requests:   make([]Histogram, len(r.shards)),
		ringLat:    make([]Histogram, len(r.shards)),
	}
	if r.cycleSrc != nil {
		copy(m.kindCycles[:], r.cycleSrc())
	}
	for i, sh := range r.shards {
		agg := sh.evicted // copy, then fold retained events on top
		if sh.full {
			for j := sh.next; j < len(sh.buf); j++ {
				agg.fold(&sh.buf[j])
			}
		}
		for j := 0; j < sh.next; j++ {
			agg.fold(&sh.buf[j])
		}
		m.agg.merge(&agg)
		for c := 0; c < int(NumClasses); c++ {
			m.droppedByClass[c] += sh.evicted.counts[c]
		}
		m.dropped += sh.evicted.total
		m.requests[i] = agg.requests
		m.ringLat[i] = sh.ringLat
	}
	return m
}
