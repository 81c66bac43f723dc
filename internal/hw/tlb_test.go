package hw

import (
	"testing"
	"testing/quick"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB()
	if tlb.Lookup(0x1234) {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x1234, PageSize4K)
	if !tlb.Lookup(0x1000) {
		t.Fatal("same-page lookup missed")
	}
	if !tlb.Lookup(0x1FFF) {
		t.Fatal("page-end lookup missed")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("next-page lookup hit")
	}
	s := tlb.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", s)
	}
}

func TestTLBLargePages(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(PageSize2M+123, PageSize2M)
	if !tlb.Lookup(PageSize2M + PageSize2M - 1) {
		t.Error("2M entry should cover whole 2M page")
	}
	if tlb.Lookup(PageSize2M * 2) {
		t.Error("2M entry covered too much")
	}
	tlb.Insert(PageSize1G*3+5, PageSize1G)
	if !tlb.Lookup(PageSize1G*3 + PageSize1G/2) {
		t.Error("1G entry should cover whole 1G page")
	}
}

func TestTLBEvictionRespectsCapacity(t *testing.T) {
	tlb := NewTLB()
	capacity := NewTLB().Capacity(PageSize4K)
	for i := 0; i < capacity*3; i++ {
		tlb.Insert(uint64(i)*PageSize4K, PageSize4K)
	}
	count := tlb.Count(PageSize4K)
	if count > capacity {
		t.Errorf("4K entries = %d, exceeds capacity %d", count, capacity)
	}
	// Most recently inserted pages should still be resident.
	last := uint64(capacity*3-1) * PageSize4K
	if !tlb.Lookup(last) {
		t.Error("most recent insertion evicted")
	}
	// The first page inserted must be gone.
	if tlb.Lookup(0) {
		t.Error("oldest entry survived massive over-subscription")
	}
}

func TestTLBLRUOrder(t *testing.T) {
	tlb := NewTLB()
	capacity := NewTLB().Capacity(PageSize4K)
	for i := 0; i < capacity; i++ {
		tlb.Insert(uint64(i)*PageSize4K, PageSize4K)
	}
	// Touch page 0 so page 1 becomes LRU.
	if !tlb.Lookup(0) {
		t.Fatal("page 0 missing")
	}
	tlb.Insert(uint64(capacity)*PageSize4K, PageSize4K) // forces one eviction
	if !tlb.Lookup(0) {
		t.Error("recently-used page 0 evicted")
	}
	if tlb.Lookup(PageSize4K) {
		t.Error("LRU page 1 not evicted")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(0, PageSize4K)
	tlb.Insert(PageSize2M, PageSize2M)
	gen := tlb.Gen()
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Error("entries survived FlushAll")
	}
	if tlb.Gen() != gen+1 {
		t.Error("generation not bumped")
	}
	if tlb.Lookup(0) {
		t.Error("hit after FlushAll")
	}
}

func TestTLBFlushRange(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(0x0000, PageSize4K)
	tlb.Insert(0x1000, PageSize4K)
	tlb.Insert(0x2000, PageSize4K)
	tlb.Insert(PageSize2M, PageSize2M) // overlaps nothing below
	tlb.FlushRange(0x1000, 0x1000)
	if tlb.Lookup(0x1000) {
		t.Error("flushed page still resident")
	}
	if !tlb.Lookup(0x0000) || !tlb.Lookup(0x2000) {
		t.Error("neighbours flushed")
	}
	if !tlb.Lookup(PageSize2M) {
		t.Error("unrelated 2M entry flushed")
	}
	// A range overlapping part of a large page must flush the whole entry.
	tlb.FlushRange(PageSize2M+PageSize4K, PageSize4K)
	if tlb.Lookup(PageSize2M) {
		t.Error("partially-overlapped 2M entry survived")
	}
}

// Property: after Insert(addr, ps), Lookup hits for every address within the
// page and the per-class count never exceeds capacity.
func TestTLBInsertLookupProperty(t *testing.T) {
	sizes := []uint64{PageSize4K, PageSize2M, PageSize1G}
	f := func(addrs []uint32, sel []uint8) bool {
		tlb := NewTLB()
		n := len(addrs)
		if len(sel) < n {
			n = len(sel)
		}
		for i := 0; i < n; i++ {
			ps := sizes[int(sel[i])%len(sizes)]
			addr := uint64(addrs[i]) << 10
			tlb.Insert(addr, ps)
			if !tlb.Lookup(addr) {
				return false
			}
			if !tlb.Lookup(AlignDown(addr, ps) + ps - 1) {
				return false
			}
		}
		for _, ps := range sizes {
			if tlb.Count(ps) > tlb.Capacity(ps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// NewTLB builds no class until the first fill: a CPU that never misses
// carries no class storage, while Capacity still reports the architectural
// sizes and the first insert builds only its own class.
func TestTLBClassesBuiltOnFirstFill(t *testing.T) {
	tlb := NewTLB()
	for i, c := range tlb.std {
		if c != nil {
			t.Fatalf("class %d built before any fill", i)
		}
	}
	for _, tc := range []struct {
		ps  uint64
		cap int
	}{{PageSize4K, 64}, {PageSize2M, 32}, {PageSize1G, 4}} {
		if got := tlb.Capacity(tc.ps); got != tc.cap {
			t.Errorf("Capacity(%#x) = %d, want %d", tc.ps, got, tc.cap)
		}
	}
	if tlb.Lookup(0x1000) || tlb.Len() != 0 || tlb.Count(PageSize4K) != 0 {
		t.Fatal("empty TLB reports entries")
	}
	tlb.FlushAll()
	tlb.FlushRange(0, PageSize1G)
	if s := tlb.Stats(); s.Misses != 1 || s.Flushes != 2 {
		t.Errorf("stats = %+v, want 1 miss 2 flushes", s)
	}
	tlb.Insert(0x1000, PageSize4K)
	for i, c := range tlb.std {
		if built := c != nil; built != (tlbSizes[i] == PageSize4K) {
			t.Errorf("class %#x built = %v after one 4K fill", tlbSizes[i], built)
		}
	}
	if !tlb.Lookup(0x1000) {
		t.Error("first fill not resident")
	}
}
