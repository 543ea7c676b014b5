package snp

import "sync"

// Machine backing free list: the large per-machine allocations — guest
// physical memory, the RMP, the stale-page bitset and the software TLB —
// recycled across boots. Benchmark harnesses and the model checker boot
// hundreds of identically-sized machines per run (and, under the
// veil-bench -j worker pool, several at once); drawing the backing arrays
// from a free list turns each boot's dominant allocation into reuse of
// already-resident pages instead of a fresh multi-megabyte heap grow plus
// first-touch fault sweep, and takes the matching load off the collector.
//
// Reuse is invisible to the simulation. The RMP and TLB are cleared on
// reuse; guest memory is not. A recycled machine instead starts with every
// page marked stale (see scrub), so no byte of the previous owner's memory
// is ever handed out: a pooled machine is observably the all-zero machine
// a fresh one is, and every deterministic output is unchanged.
//
// The list is a plain mutex-guarded stack per page count rather than a
// sync.Pool: a collection empties a sync.Pool, and the boot after it would
// then allocate (and the heap grow by) a whole fresh backing. The list
// needs no cap — each entry was once owned by a live machine, so a size's
// list never holds more backings than the peak number of machines of that
// size that were alive at once.

// machineBacking bundles one machine's recyclable arrays. mem, rmp and
// stale always describe the same page count; tlb is nil until the machine
// that owned it made its first translation.
type machineBacking struct {
	mem   []byte
	rmp   []RMPEntry
	stale []uint64
	tlb   []tlbEntry
}

// backings maps a machine's page count to its free list.
var backings struct {
	sync.Mutex
	free map[uint64][]machineBacking
}

// acquireBacking returns a recycled backing for a machine of the given
// page count, ready for a fresh boot: RMP and TLB cleared, every page
// stale. ok is false when the list for that size is empty.
func acquireBacking(pages uint64) (b machineBacking, ok bool) {
	backings.Lock()
	list := backings.free[pages]
	if n := len(list); n > 0 {
		b, ok = list[n-1], true
		list[n-1] = machineBacking{}
		backings.free[pages] = list[:n-1]
	}
	backings.Unlock()
	if !ok {
		return b, false
	}
	clear(b.rmp)
	clear(b.tlb)
	for i := range b.stale {
		b.stale[i] = ^uint64(0)
	}
	return b, true
}

// releaseBacking pushes a backing onto its size's free list.
func releaseBacking(b machineBacking) {
	pages := uint64(len(b.rmp))
	backings.Lock()
	if backings.free == nil {
		backings.free = make(map[uint64][]machineBacking)
	}
	backings.free[pages] = append(backings.free[pages], b)
	backings.Unlock()
}

// Release returns the machine's backing memory to the boot free list. The
// machine — and anything aliasing its memory: access contexts, span
// windows, SpanCursors — must not be used afterwards; callers own that
// lifetime (the bench harness releases only machines whose experiments
// have fully read their results). Releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	// Invalidate any outstanding SpanCursor: a cursor caches a slice of
	// m.mem plus a tlbGen snapshot, and the backing may next belong to a
	// different machine.
	m.tlbGen++
	releaseBacking(machineBacking{mem: m.mem, rmp: m.rmp, stale: m.stale, tlb: m.tlb})
	m.mem = nil
	m.rmp = nil
	m.stale = nil
	m.tlb = nil
	m.ptPages = nil
	m.ptGen = nil
}
