package obs

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the v3 sharded record path: per-VCPU rings with a
// deterministic virtual-time merge at export. The invariants pinned here
// are the ones the tentpole promised — merge order reproduces the exact
// single-ring record order, eviction moves metrics instead of losing
// them, the flight-shadow tail is exact, and every exporter is
// byte-deterministic over a sharded multi-VCPU stream.

// seededStream produces a deterministic mixed-VCPU event stream, the
// stand-in for a seeded multi-VCPU simulator run.
func seededStream(n, vcpus int, seed int64) []Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	for i := range evs {
		k := Instant
		var dur uint64
		if r.Intn(4) == 0 {
			k = Span
			dur = uint64(r.Intn(50000))
		}
		evs[i] = Event{
			TS: uint64(i) * 97, Dur: dur,
			Class: Class(r.Intn(int(NumClasses))), Kind: k,
			Arg1: uint64(r.Intn(8)), VCPU: int32(r.Intn(vcpus)), VMPL: -1,
		}
	}
	return evs
}

func TestShardedMergeReproducesRecordOrder(t *testing.T) {
	in := seededStream(5000, 4, 71)
	r := NewRecorder(1 << 13) // retains everything
	for _, e := range in {
		r.Record(e)
	}
	if got := r.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	out := r.Events()
	if len(out) != len(in) {
		t.Fatalf("Events() = %d events, want %d", len(out), len(in))
	}
	for i := range in {
		e := out[i]
		e.Seq = 0 // Seq is assigned by the recorder; everything else must match
		if e != in[i] {
			t.Fatalf("merged event %d = %+v, want %+v", i, e, in[i])
		}
		if i > 0 && out[i].Seq <= out[i-1].Seq {
			t.Fatalf("merge order broken at %d: Seq %d after %d", i, out[i].Seq, out[i-1].Seq)
		}
	}
}

func TestShardedEvictionKeepsAggregates(t *testing.T) {
	const cap, n = 64, 4000
	in := seededStream(n, 3, 72)

	big := NewRecorder(1 << 13) // reference: retains all, no eviction
	small := NewRecorder(cap)   // evicts almost everything
	for _, e := range in {
		big.Record(e)
		small.Record(e)
	}
	mb, ms := big.Metrics(), small.Metrics()
	for c := Class(0); c < NumClasses; c++ {
		if mb.Count(c) != ms.Count(c) {
			t.Errorf("class %v: evicting recorder counted %d, reference %d", c, ms.Count(c), mb.Count(c))
		}
		hb, hs := mb.SpanHist(c), ms.SpanHist(c)
		if hb.Count() != hs.Count() || hb.Sum() != hs.Sum() {
			t.Errorf("class %v span hist: evicted {n=%d sum=%d}, reference {n=%d sum=%d}",
				c, hs.Count(), hs.Sum(), hb.Count(), hb.Sum())
		}
	}
	if small.Total() != n {
		t.Errorf("Total() = %d, want %d", small.Total(), n)
	}
	var droppedSum uint64
	for c := Class(0); c < NumClasses; c++ {
		droppedSum += ms.DroppedByClass(c)
	}
	if droppedSum != ms.Dropped() || ms.Dropped() != small.Total()-uint64(small.Len()) {
		t.Errorf("drop accounting: byClass sum %d, Dropped %d, total-retained %d",
			droppedSum, ms.Dropped(), small.Total()-uint64(small.Len()))
	}
}

func TestShardedTailIsGloballyNewest(t *testing.T) {
	in := seededStream(3000, 4, 73)
	r := NewRecorder(512)
	for _, e := range in {
		r.Record(e)
	}
	tail := r.Tail(512)
	if len(tail) != 512 {
		t.Fatalf("Tail(512) = %d events", len(tail))
	}
	// The tail must be exactly the newest 512 of the input, oldest first.
	want := in[len(in)-512:]
	for i := range want {
		e := tail[i]
		e.Seq = 0
		if e != want[i] {
			t.Fatalf("tail[%d] = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestAllocMatchesRecord(t *testing.T) {
	in := seededStream(2000, 4, 74)
	viaRecord := NewRecorder(256)
	viaAlloc := NewRecorder(256)
	for _, e := range in {
		viaRecord.Record(e)
		s := viaAlloc.Alloc(e.VCPU)
		seq := s.Seq
		*s = e
		s.Seq = seq
	}
	if !bytes.Equal(exportAll(t, viaRecord), exportAll(t, viaAlloc)) {
		t.Fatal("Alloc-filled recorder exports differ from Record-filled")
	}
}

// exportAll renders every exporter into one buffer — the byte-identity
// probe the determinism tests compare.
func exportAll(t *testing.T, r *Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, ChromeOptions{ProcessName: "t", CyclesPerMicrosecond: 1900}); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	WritePrometheus(&buf, r)
	WriteSummary(&buf, r)
	if err := WriteFlamegraph(&buf, r, FlamegraphOptions{}); err != nil {
		t.Fatalf("flamegraph: %v", err)
	}
	return buf.Bytes()
}

// TestShardedExportDeterminism is the tentpole's export contract: a seeded
// multi-VCPU stream exported twice from the same recorder, and again from
// an independently replayed recorder, is byte-identical across every
// exporter (Chrome trace, Prometheus text, summary, flame graph).
func TestShardedExportDeterminism(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder(1024)
		r.SetServiceNames([]string{"mon", "kci", "enc", "log"})
		for _, e := range seededStream(6000, 4, 75) {
			r.Record(e)
		}
		return r
	}
	r1 := mk()
	first := exportAll(t, r1)
	if again := exportAll(t, r1); !bytes.Equal(first, again) {
		t.Fatal("re-exporting the same recorder changed bytes")
	}
	if replay := exportAll(t, mk()); !bytes.Equal(first, replay) {
		t.Fatal("replaying the seeded stream into a fresh recorder changed bytes")
	}
}

// TestPrometheusLabelEscaping pins the %q escaping on service-name labels:
// quotes, backslashes and newlines in a registered name must stay inside
// one well-formed label value.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRecorder(64)
	r.SetServiceNames([]string{`we"ird`, `back\slash`, "new\nline"})
	for svc := 0; svc < 3; svc++ {
		r.Record(Event{TS: uint64(svc), Dur: 100, Class: ClassService, Kind: Span, Arg1: uint64(svc), VMPL: -1})
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	for _, want := range []string{`service="we\"ird"`, `service="back\\slash"`, `service="new\nline"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("prometheus output missing escaped label %s", want)
		}
	}
	for i, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if n := bytes.Count(line, []byte(`{`)); n > 1 {
			t.Errorf("line %d has %d '{': %q", i, n, line)
		}
	}
}
