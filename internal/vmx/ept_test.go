package vmx

import (
	"testing"
	"testing/quick"

	"covirt/internal/hw"
)

func TestEPTEmptyViolates(t *testing.T) {
	e := NewEPT()
	if _, err := e.Walk(0x1000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Fatalf("err = %v, want EPT violation", err)
	}
}

func TestEPTMapWalk(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x10000, 0x4000, PermAll); err != nil {
		t.Fatal(err)
	}
	res, err := e.Walk(0x10000, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageSize != hw.PageSize4K {
		t.Errorf("page size = %#x, want 4K", res.PageSize)
	}
	if res.Levels != 4 {
		t.Errorf("levels = %d, want 4", res.Levels)
	}
	if _, err := e.Walk(0x13FFF, false); err != nil {
		t.Errorf("last byte walk: %v", err)
	}
	if _, err := e.Walk(0x14000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("walk past end = %v, want violation", err)
	}
	if _, err := e.Walk(0xFFFF, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("walk before start = %v, want violation", err)
	}
}

func TestEPTPermissions(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x1000, 0x1000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x1000, false); err != nil {
		t.Errorf("read of read-only page: %v", err)
	}
	if _, err := e.Walk(0x1000, true); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("write of read-only page = %v, want violation", err)
	}
}

func TestEPTCoalescing(t *testing.T) {
	e := NewEPT()
	// 1 GiB region aligned to 1 GiB: should be a single giant mapping.
	if err := e.MapRange(hw.PageSize1G, hw.PageSize1G, PermAll); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Mapped1G != 1 || s.Mapped2M != 0 || s.Mapped4K != 0 {
		t.Errorf("1G-aligned GiB: stats = %+v, want one 1G page", s)
	}
	res, err := e.Walk(hw.PageSize1G+12345, false)
	if err != nil || res.PageSize != hw.PageSize1G {
		t.Errorf("walk = %+v, %v; want 1G leaf", res, err)
	}
	if res.Levels != 2 {
		t.Errorf("1G walk levels = %d, want 2", res.Levels)
	}

	// A 2M+8K region starting 4K below a 2M boundary: 2 head 4K pages
	// cannot coalesce (misaligned), then one 2M page, no tail.
	e2 := NewEPT()
	start := uint64(hw.PageSize2M*5) - 2*hw.PageSize4K
	if err := e2.MapRange(start, hw.PageSize2M+2*hw.PageSize4K, PermAll); err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.Mapped2M != 1 || s2.Mapped4K != 2 {
		t.Errorf("stats = %+v, want 1x2M + 2x4K", s2)
	}
	if res, _ := e2.Walk(hw.PageSize2M*5, false); res.Levels != 3 {
		t.Errorf("2M walk levels = %d, want 3", res.Levels)
	}
}

func TestEPTDoubleMapRejected(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x0, hw.PageSize2M, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.MapRange(0x1000, 0x1000, PermAll); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := e.MapRange(0x0, hw.PageSize2M, PermAll); err == nil {
		t.Error("duplicate map accepted")
	}
}

func TestEPTUnalignedRejected(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x100, 0x1000, PermAll); err == nil {
		t.Error("unaligned gpa accepted")
	}
	if err := e.MapRange(0x1000, 0x100, PermAll); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := e.UnmapRange(0x10, 0x1000); err == nil {
		t.Error("unaligned unmap accepted")
	}
}

func TestEPTUnmapExact(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x10000, 0x4000, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.UnmapRange(0x11000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x11000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Error("unmapped page still walks")
	}
	for _, ok := range []uint64{0x10000, 0x12000, 0x13000} {
		if _, err := e.Walk(ok, false); err != nil {
			t.Errorf("neighbour %#x unmapped: %v", ok, err)
		}
	}
	if got := e.Stats().Bytes; got != 0x3000 {
		t.Errorf("bytes = %#x, want 0x3000", got)
	}
}

func TestEPTUnmapSplitsLargePage(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0, hw.PageSize1G, PermAll); err != nil {
		t.Fatal(err)
	}
	// Punch a 4K hole in the middle of the giant page.
	hole := uint64(hw.PageSize1G / 2)
	if err := e.UnmapRange(hole, hw.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(hole, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Error("hole still mapped")
	}
	if _, err := e.Walk(hole-hw.PageSize4K, false); err != nil {
		t.Errorf("page below hole: %v", err)
	}
	if _, err := e.Walk(hole+hw.PageSize4K, true); err != nil {
		t.Errorf("page above hole: %v", err)
	}
	if _, err := e.Walk(0, false); err != nil {
		t.Errorf("start of former giant page: %v", err)
	}
	s := e.Stats()
	if s.Bytes != hw.PageSize1G-hw.PageSize4K {
		t.Errorf("bytes = %#x, want 1G-4K", s.Bytes)
	}
	if s.Mapped1G != 0 {
		t.Errorf("giant pages = %d after split", s.Mapped1G)
	}
}

func TestEPTUnmapUnmappedIsNoop(t *testing.T) {
	e := NewEPT()
	if err := e.UnmapRange(0x100000, 0x10000); err != nil {
		t.Fatalf("unmap of empty EPT: %v", err)
	}
	if err := e.MapRange(0x1000, 0x1000, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.UnmapRange(0x5000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x1000, false); err != nil {
		t.Errorf("unrelated unmap removed mapping: %v", err)
	}
}

func TestEPTGenerationBumps(t *testing.T) {
	e := NewEPT()
	g0 := e.Gen()
	if err := e.MapRange(0, hw.PageSize4K, PermAll); err != nil {
		t.Fatal(err)
	}
	if e.Gen() != g0+1 {
		t.Error("map did not bump generation")
	}
	if err := e.UnmapRange(0, hw.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if e.Gen() != g0+2 {
		t.Error("unmap did not bump generation")
	}
}

// Property: for any set of disjoint 4K-ranges mapped, every mapped page
// walks successfully, every unmapped probe violates, and Stats.Bytes equals
// the sum of mapped range sizes.
func TestEPTMapWalkProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		e := NewEPT()
		var total uint64
		mapped := map[uint64]bool{}
		for i, s := range seeds {
			if i >= 24 {
				break
			}
			start := uint64(s) * hw.PageSize2M // disjoint by construction
			size := uint64(s%5+1) * hw.PageSize4K
			if mapped[start] {
				continue
			}
			mapped[start] = true
			if err := e.MapRange(start, size, PermAll); err != nil {
				return false
			}
			total += size
			for off := uint64(0); off < size; off += hw.PageSize4K {
				if _, err := e.Walk(start+off, true); err != nil {
					return false
				}
			}
			if _, err := e.Walk(start+size, false); err == nil && size < hw.PageSize2M {
				return false
			}
		}
		return e.Stats().Bytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: map a range, unmap an arbitrary aligned subrange; exactly the
// pages outside the subrange remain mapped.
func TestEPTUnmapSubrangeProperty(t *testing.T) {
	f := func(startPg, sizePg, holePg, holeSzPg uint8) bool {
		size := (uint64(sizePg)%64 + 1) * hw.PageSize4K
		start := uint64(startPg) % 8 * hw.PageSize2M
		hole := start + (uint64(holePg)*hw.PageSize4K)%size
		holeSz := (uint64(holeSzPg)%32 + 1) * hw.PageSize4K
		e := NewEPT()
		if err := e.MapRange(start, size, PermAll); err != nil {
			return false
		}
		if err := e.UnmapRange(hole, holeSz); err != nil {
			return false
		}
		for off := uint64(0); off < size; off += hw.PageSize4K {
			a := start + off
			inHole := a >= hole && a < hole+holeSz
			_, err := e.Walk(a, true)
			if inHole && err == nil {
				return false
			}
			if !inHole && err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBestPageSize(t *testing.T) {
	cases := []struct {
		cur, rem, want uint64
	}{
		{0, hw.PageSize1G, hw.PageSize1G},
		{0, hw.PageSize1G - 1, hw.PageSize2M},
		{hw.PageSize2M, hw.PageSize2M, hw.PageSize2M},
		{hw.PageSize4K, hw.PageSize1G, hw.PageSize4K},
		{hw.PageSize2M, hw.PageSize2M - 1, hw.PageSize4K},
	}
	for _, c := range cases {
		if got := bestPageSize(c.cur, c.rem); got != c.want {
			t.Errorf("bestPageSize(%#x, %#x) = %#x, want %#x", c.cur, c.rem, got, c.want)
		}
	}
}

// A range that wraps past the top of the address space used to compute a
// tiny end, map or unmap nothing and still bump the generation.
func TestEPTWrappingRangeRejected(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x620000, hw.PageSize2M, PermAll); err != nil {
		t.Fatal(err)
	}
	g0, s0 := e.Gen(), e.Stats()
	wraps := []struct{ gpa, size uint64 }{
		{0x620000, 1<<64 - hw.PageSize2M},      // ends past 2^64
		{1<<64 - hw.PageSize4K, hw.PageSize4K}, // ends exactly at 2^64
		{hw.PageSize1G, 1<<64 - hw.PageSize4K},
	}
	for _, w := range wraps {
		if err := e.MapRange(w.gpa, w.size, PermAll); err == nil {
			t.Errorf("MapRange(%#x, %#x) accepted a wrapping range", w.gpa, w.size)
		}
		if err := e.UnmapRange(w.gpa, w.size); err == nil {
			t.Errorf("UnmapRange(%#x, %#x) accepted a wrapping range", w.gpa, w.size)
		}
	}
	if e.Gen() != g0 || e.Stats() != s0 {
		t.Errorf("rejected ranges changed the EPT: gen %d->%d, stats %+v->%+v", g0, e.Gen(), s0, e.Stats())
	}
	if _, err := e.Walk(0x620000, true); err != nil {
		t.Errorf("existing mapping lost: %v", err)
	}
}

func TestEPTInvalidPermsRejected(t *testing.T) {
	e := NewEPT()
	for _, p := range []Perms{PermAll + 1, 1 << 7, 0xFF} {
		if err := e.MapRange(0, hw.PageSize4K, p); err == nil {
			t.Errorf("perms %#x accepted", p)
		}
	}
	if e.Gen() != 0 || e.Stats() != (EPTStats{}) {
		t.Errorf("rejected perms changed the EPT: gen %d, stats %+v", e.Gen(), e.Stats())
	}
	// Every permission set within PermAll, including none, is valid.
	for p := Perms(0); p <= PermAll; p++ {
		if err := e.MapRange(uint64(p)*hw.PageSize4K, hw.PageSize4K, p); err != nil {
			t.Errorf("perms %#x: %v", p, err)
		}
	}
}

// A failed map keeps the leaves installed before the overlap (the
// controller treats any error as a bug) but does not bump the generation.
func TestEPTOverlapStopsMidRun(t *testing.T) {
	e := NewEPT()
	e.SetMaxPageSize(hw.PageSize4K)
	if err := e.MapRange(0x5000, hw.PageSize4K, PermRead); err != nil {
		t.Fatal(err)
	}
	g0 := e.Gen()
	if err := e.MapRange(0x1000, 0x8000, PermAll); err == nil {
		t.Fatal("overlapping run accepted")
	}
	if e.Gen() != g0 {
		t.Error("failed map bumped the generation")
	}
	if got := e.Stats(); got.Mapped4K != 5 || got.Bytes != 5*hw.PageSize4K {
		t.Errorf("stats = %+v, want the 4 pages before the overlap plus the original", got)
	}
	if res, err := e.Walk(0x5000, false); err != nil || res.Perms != PermRead {
		t.Errorf("overlapped leaf = %+v, %v; want the original read-only leaf", res, err)
	}
	if e.Mapped(0x6000) {
		t.Error("page after the overlap mapped")
	}
}

// tableCount counts the table nodes below n, n included.
func tableCount(n *eptNode) int {
	c := 1
	for i := range n.entries {
		if ent := n.entries[i].Load(); ent != nil && !ent.leaf {
			c += tableCount(ent.next)
		}
	}
	return c
}

// Mapping allocates table nodes only: leaves share one immutable entry per
// permission set, so a 4K-only build costs two objects (entry + node) per
// table it creates and nothing per leaf.
func TestEPTMapRangeAllocsPerTable(t *testing.T) {
	const size = 64 << 20
	e := NewEPT()
	e.SetMaxPageSize(hw.PageSize4K)
	base := uint64(hw.PageSize1G)
	if err := e.MapRange(base, size, PermAll); err != nil {
		t.Fatal(err)
	}
	created := tableCount(e.root) - 1 // the root exists before the map
	if leaves := e.Stats().Mapped4K; leaves != size/hw.PageSize4K {
		t.Fatalf("4K leaves = %d, want %d", leaves, size/hw.PageSize4K)
	}
	if err := e.UnmapRange(base, size); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := e.MapRange(base, size, PermAll); err != nil {
			t.Fatal(err)
		}
		if err := e.UnmapRange(base, size); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2 * created); allocs > limit {
		t.Errorf("map of %d 4K leaves in %d tables: %.0f allocs, want <= %.0f", size/hw.PageSize4K, created, allocs, limit)
	}
}
