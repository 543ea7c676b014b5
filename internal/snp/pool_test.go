package snp

import (
	"bytes"
	"sync"
	"testing"
)

// TestRecycledMachineReadsZero pins the boot free list's safety contract:
// a machine booted on a released, fully dirtied backing reads zero on
// every page through every path that hands out or copies page bytes, so a
// recycled boot is indistinguishable from a fresh one. Each path gets its
// own pages, so no path benefits from another's scrub.
func TestRecycledMachineReadsZero(t *testing.T) {
	// A size no other test boots, so the reuse below is this test's own.
	cfg := Config{MemBytes: 40 * PageSize, VCPUs: 1}
	m := NewMachine(cfg)
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	for i := range m.mem {
		m.mem[i] = 0xAB
	}
	old := &m.mem[0]
	m.Release()
	if m.mem != nil || m.rmp != nil || m.stale != nil {
		t.Fatal("Release left backing attached")
	}
	m.Release() // double release is a no-op

	m = NewMachine(cfg)
	if &m.mem[0] != old {
		t.Fatal("NewMachine did not reuse the released backing")
	}
	for i, e := range m.rmp {
		if e != (RMPEntry{}) {
			t.Fatalf("recycled RMP not cleared at page %d: %+v", i, e)
		}
	}

	// Page tables live on shared pages 32.. and identity-map pages 0..15.
	// The walker reads them through rawPage; WritePTE's 8-byte writes
	// must scrub the rest of each table page first.
	cr3, _ := buildIdentityMap(t, m, 32*PageSize, 16, PTEPresent|PTEWrite|PTEUser)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	page := make([]byte, PageSize)
	wantZero := func(path string, pg int, got []byte) {
		t.Helper()
		if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("%s: page %d byte %d reads %#x after recycling", path, pg, i, got[i])
		}
	}

	for pg := 0; pg < 4; pg++ {
		if err := m.GuestReadPhys(VMPL0, CPL0, uint64(pg)*PageSize, page); err != nil {
			t.Fatal(err)
		}
		wantZero("GuestReadPhys", pg, page)
	}
	for pg := 4; pg < 8; pg++ {
		span, err := m.Span(VMPL0, CPL0, uint64(pg)*PageSize, PageSize, AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		wantZero("Span", pg, span)
	}
	rc := ctx.Cursor(AccessRead)
	for pg := 8; pg < 11; pg++ {
		for off := uint64(0); off < PageSize; off += 8 {
			v, err := rc.ReadU64(uint64(pg)*PageSize + off)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("SpanCursor.ReadU64: page %d offset %d reads %#x after recycling", pg, off, v)
			}
		}
	}
	for pg := 11; pg < 14; pg++ {
		if err := rc.Copy(uint64(pg)*PageSize, page); err != nil {
			t.Fatal(err)
		}
		wantZero("SpanCursor.Copy", pg, page)
	}
	for pg := 14; pg < 16; pg++ {
		if err := ctx.Read(uint64(pg)*PageSize, page); err != nil {
			t.Fatal(err)
		}
		wantZero("AccessContext.Read", pg, page)
	}
	for pg := 16; pg < 20; pg++ {
		if err := m.HVReadPhys(uint64(pg)*PageSize, page); err != nil {
			t.Fatal(err)
		}
		wantZero("HVReadPhys", pg, page)
	}

	// Launch measurement copies a partial page: the tail must read zero.
	image := []byte{1, 2, 3}
	if err := m.LaunchLoad(20*PageSize, image); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestReadPhys(VMPL0, CPL0, 20*PageSize, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:len(image)], image) {
		t.Fatalf("LaunchLoad image reads % x, want % x", page[:len(image)], image)
	}
	wantZero("LaunchLoad tail", 20, page[len(image):])

	// So does a partial hypervisor write to a shared page.
	if err := m.HVWritePhys(21*PageSize, image); err != nil {
		t.Fatal(err)
	}
	if err := m.HVReadPhys(21*PageSize, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:len(image)], image) {
		t.Fatalf("HVWritePhys wrote % x, want % x", page[:len(image)], image)
	}
	wantZero("HVWritePhys tail", 21, page[len(image):])

	// The walker on an untouched page must see not-present entries, not
	// the previous owner's 0xAB bytes (which have the present bit set).
	stray := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: 24 * PageSize}
	if _, err := stray.Translate(0, AccessRead); err == nil {
		t.Fatal("walk through an untouched recycled page found a present PTE")
	}
}

// TestRePValidateReadsZero: a written page that is invalidated and
// PVALIDATEd again reads zero through a TLB hit and through a cursor that
// was open on it before the PVALIDATE — also with TLB invalidation
// deliberately suppressed, where the translation and the cursor both
// survive the page-state change.
func TestRePValidateReadsZero(t *testing.T) {
	for _, broken := range []bool{false, true} {
		m := testMachine(t, 64, 64)
		cr3, _ := buildIdentityMap(t, m, 16*PageSize, 8, PTEPresent|PTEWrite|PTEUser)
		m.SetBrokenTLBNoInvalidate(broken)
		ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
		var err error
		const dirty = 0xCDCDCDCDCDCDCDCD
		// Each page gets its own read cursor, left open on it.
		var cur [2]SpanCursor
		for i, va := range []uint64{2 * PageSize, 3 * PageSize} {
			if err := ctx.WriteU64(va+64, dirty); err != nil {
				t.Fatal(err)
			}
			cur[i] = ctx.Cursor(AccessRead)
			if v, err := cur[i].ReadU64(va + 64); err != nil || v != dirty {
				t.Fatalf("broken=%v: cursor read before re-validate = %#x, %v", broken, v, err)
			}
			if err := m.PValidate(VMPL0, va, false); err != nil {
				t.Fatal(err)
			}
			if err := m.PValidate(VMPL0, va, true); err != nil {
				t.Fatal(err)
			}
		}
		// Page 2 is read through its cursor first, page 3 through the
		// TLB-hit path first; then the other way round.
		var got [4]uint64
		got[0], err = cur[0].ReadU64(2*PageSize + 64)
		if err != nil {
			t.Fatal(err)
		}
		hits := m.MemStats().TLBHits
		if got[1], err = ctx.ReadU64(3*PageSize + 64); err != nil {
			t.Fatal(err)
		}
		if m.MemStats().TLBHits == hits {
			t.Fatalf("broken=%v: the read did not take the TLB-hit path", broken)
		}
		if got[2], err = cur[1].ReadU64(3*PageSize + 64); err != nil {
			t.Fatal(err)
		}
		if got[3], err = ctx.ReadU64(2*PageSize + 64); err != nil {
			t.Fatal(err)
		}
		if got != [4]uint64{} {
			t.Fatalf("broken=%v: re-validated pages read %#x, want 0", broken, got)
		}
	}
}

// TestBackingFreeListConcurrent boots, dirties and releases machines of
// one size from several goroutines at once (run it under -race). Every
// boot must read zero, and the free list must end no longer than the
// number of machines that were ever alive at once.
func TestBackingFreeListConcurrent(t *testing.T) {
	const pages, workers, rounds = 12, 4, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			page := make([]byte, PageSize)
			for r := 0; r < rounds; r++ {
				m := NewMachine(Config{MemBytes: pages * PageSize, VCPUs: 1})
				for pg := uint64(0); pg < pages; pg++ {
					if err := m.HVReadPhys(pg*PageSize, page); err != nil {
						errs <- err.Error()
						return
					}
					if bytes.Count(page, []byte{0}) != PageSize {
						errs <- "a fresh boot read a previous machine's bytes"
						return
					}
					for i := range page {
						page[i] = byte(w + 1)
					}
					if err := m.HVWritePhys(pg*PageSize, page); err != nil {
						errs <- err.Error()
						return
					}
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	backings.Lock()
	n := len(backings.free[pages])
	backings.Unlock()
	if n > workers {
		t.Fatalf("free list holds %d backings, more than the %d machines ever alive at once", n, workers)
	}
}

// TestReleaseInvalidatesCursors: a cursor into a released machine must not
// take its fast path against recycled memory.
func TestReleaseInvalidatesCursors(t *testing.T) {
	m := NewMachine(Config{MemBytes: 16 * PageSize, VCPUs: 1})
	gen := m.tlbGen
	m.Release()
	if m.tlbGen == gen {
		t.Fatal("Release did not bump tlbGen; stale SpanCursors would still validate")
	}
}
