package hw

import (
	"testing"
	"testing/quick"
)

func TestRegionAddFindRemove(t *testing.T) {
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x1000, 0x4000, 0, "a")
	if err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	if got := pm.Find(0x1000); got != r {
		t.Errorf("Find(start) = %v, want %v", got, r)
	}
	if got := pm.Find(0x4FFF); got != r {
		t.Errorf("Find(end-1) = %v, want %v", got, r)
	}
	if got := pm.Find(0x5000); got != nil {
		t.Errorf("Find(end) = %v, want nil", got)
	}
	if got := pm.Find(0xFFF); got != nil {
		t.Errorf("Find(start-1) = %v, want nil", got)
	}
	if rm := pm.RemoveRegion(0x1000); rm != r {
		t.Errorf("RemoveRegion = %v, want %v", rm, r)
	}
	if got := pm.Find(0x1000); got != nil {
		t.Errorf("Find after remove = %v, want nil", got)
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0x1000, 0, "a"); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ start, size uint64 }{
		{0x1000, 0x1000}, // exact duplicate
		{0x800, 0x900},   // overlaps head
		{0x1800, 0x1000}, // overlaps tail
		{0x800, 0x3000},  // engulfs
		{0x1400, 0x100},  // inside
	}
	for _, c := range cases {
		if _, err := pm.AddRegion(c.start, c.size, 0, "b"); err == nil {
			t.Errorf("AddRegion(%#x,%#x) succeeded, want overlap error", c.start, c.size)
		}
	}
	// Adjacent regions are fine.
	if _, err := pm.AddRegion(0x2000, 0x1000, 0, "c"); err != nil {
		t.Errorf("adjacent AddRegion failed: %v", err)
	}
	if _, err := pm.AddRegion(0x0, 0x1000, 0, "d"); err != nil {
		t.Errorf("adjacent-below AddRegion failed: %v", err)
	}
}

func TestRegionRejectsZeroAndWrap(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0, 0, "zero"); err == nil {
		t.Error("zero-size region accepted")
	}
	if _, err := pm.AddRegion(^uint64(0)-0x10, 0x100, 0, "wrap"); err == nil {
		t.Error("wrapping region accepted")
	}
}

func TestPhysMemReadWrite(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x10000, 1<<20, 1, "m"); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write64(0x10008, 0xDEADBEEFCAFE); err != nil {
		t.Fatalf("Write64: %v", err)
	}
	v, err := pm.Read64(0x10008)
	if err != nil || v != 0xDEADBEEFCAFE {
		t.Fatalf("Read64 = %#x, %v; want 0xDEADBEEFCAFE", v, err)
	}
	// Unwritten memory reads zero.
	v, err = pm.Read64(0x10000 + 1<<19)
	if err != nil || v != 0 {
		t.Fatalf("Read64(untouched) = %#x, %v; want 0", v, err)
	}
	// Cross-page write/read (the lazy-backing granule is one 4 KiB page).
	buf := make([]byte, PageSize4K+100)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := pm.Write(0x10000+PageSize4K-50, buf); err != nil {
		t.Fatalf("cross-page Write: %v", err)
	}
	got := make([]byte, len(buf))
	if err := pm.Read(0x10000+PageSize4K-50, got); err != nil {
		t.Fatalf("cross-page Read: %v", err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], buf[i])
		}
	}
	if pm.NodeOf(0x10000) != 1 {
		t.Errorf("NodeOf = %d, want 1", pm.NodeOf(0x10000))
	}
	if pm.NodeOf(0x0) != -1 {
		t.Errorf("NodeOf(unbacked) = %d, want -1", pm.NodeOf(0x0))
	}
}

func TestPhysMemBusError(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0x1000, 0, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Read64(0x0); !IsFault(err, FaultBusError) {
		t.Errorf("Read64(unbacked) err = %v, want bus error", err)
	}
	// Access straddling the end of a region is also a bus error.
	if err := pm.Write64(0x1FFC, 1); !IsFault(err, FaultBusError) {
		t.Errorf("straddling Write64 err = %v, want bus error", err)
	}
	f := &Fault{}
	if IsFault(f, FaultEPTViolation) {
		t.Error("IsFault matched wrong kind")
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignDown(0x12345, PageSize4K) != 0x12000 {
		t.Error("AlignDown wrong")
	}
	if AlignUp(0x12345, PageSize4K) != 0x13000 {
		t.Error("AlignUp wrong")
	}
	if AlignUp(0x12000, PageSize4K) != 0x12000 {
		t.Error("AlignUp of aligned value changed it")
	}
}

// Property: a written value is always read back identically anywhere within
// a region, across page boundaries.
func TestPhysMemRoundTripProperty(t *testing.T) {
	pm := NewPhysMem()
	const base, size = 0x100000, 1 << 22
	if _, err := pm.AddRegion(base, size, 0, "p"); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, val uint64) bool {
		addr := base + uint64(off)%(size-8)
		if err := pm.Write64(addr, val); err != nil {
			return false
		}
		got, err := pm.Read64(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddRegion never produces overlapping regions, whatever the
// sequence of adds.
func TestRegionDisjointProperty(t *testing.T) {
	f := func(starts []uint16, sizes []uint8) bool {
		pm := NewPhysMem()
		n := len(starts)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			// Errors are fine; we only care about the invariant below.
			//covirt:allow physmem-errcheck overlap rejections are the point of this property test
			_, _ = pm.AddRegion(uint64(starts[i])*0x100, uint64(sizes[i])*0x100+0x100, 0, "r")
		}
		regs := pm.Regions()
		for i := 1; i < len(regs); i++ {
			if regs[i-1].End() > regs[i].Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// backedPages returns how many pages of r hold backing.
func backedPages(r *Region) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pages)
}

// pageBacked reports whether page idx of r holds backing.
func pageBacked(r *Region, idx uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pages[idx] != nil
}

// A read of memory that was never written returns zeros and allocates
// nothing: neither a backing page nor anything else.
func TestPhysMemUnwrittenReadAllocatesNothing(t *testing.T) {
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x100000, 1<<20, 0, "m")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*PageSize4K)
	for i := range buf {
		buf[i] = 0xAA
	}
	if err := pm.Read(0x100000+100, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d of unwritten memory = %#x, want 0", i, b)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		//covirt:allow physmem-errcheck in-range read of a region built above
		_ = pm.Read(0x100000+100, buf)
	})
	if allocs != 0 {
		t.Errorf("read of unwritten memory: %v allocs/op, want 0", allocs)
	}
	if n := backedPages(r); n != 0 {
		t.Errorf("backed pages after reads = %d, want 0", n)
	}
}

// An all-zero write into a page that was never written is a no-op: it
// allocates nothing and the page stays unbacked.
func TestPhysMemZeroWriteAllocatesNothing(t *testing.T) {
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x100000, 1<<20, 0, "m")
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 2*PageSize4K)
	allocs := testing.AllocsPerRun(100, func() {
		//covirt:allow physmem-errcheck in-range write of a region built above
		_ = pm.Write(0x100000+8, zeros)
		//covirt:allow physmem-errcheck in-range write of a region built above
		_ = pm.Write64(0x100000+3*PageSize4K, 0)
	})
	if allocs != 0 {
		t.Errorf("zero write to unbacked pages: %v allocs/op, want 0", allocs)
	}
	if n := backedPages(r); n != 0 {
		t.Errorf("backed pages after zero writes = %d, want 0", n)
	}
	// Zeros written over a backed page still overwrite it.
	if err := pm.Write64(0x100000+8, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(0x100000, zeros); err != nil {
		t.Fatal(err)
	}
	if v, err := pm.Read64(0x100000 + 8); err != nil || v != 0 {
		t.Errorf("Read64 after zeroing a backed page = %#x, %v; want 0", v, err)
	}
}

// A write straddling two pages with non-zero bytes in only one of them
// backs only that page.
func TestPhysMemStraddlingWriteBacksOnlyNonZeroPage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nonzero int // index into the 16-byte write of the one non-zero byte
		page    uint64
	}{
		{"first", 2, 0},
		{"second", 13, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pm := NewPhysMem()
			r, err := pm.AddRegion(0, 1<<20, 0, "m")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16)
			buf[tc.nonzero] = 0x5A
			addr := uint64(PageSize4K - 8)
			if err := pm.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
			if n, backed := backedPages(r), pageBacked(r, tc.page); n != 1 || !backed {
				t.Errorf("backed pages = %d (page %d backed: %v), want only page %d", n, tc.page, backed, tc.page)
			}
			got := make([]byte, len(buf))
			if err := pm.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if got[i] != buf[i] {
					t.Fatalf("byte %d = %#x, want %#x", i, got[i], buf[i])
				}
			}
		})
	}
}

// Property: a region behaves exactly like a flat byte array under any mix
// of writes (some all-zero, some straddling pages) and reads.
func TestPhysMemMatchesFlatModel(t *testing.T) {
	const size = 8 * PageSize4K
	f := func(ops []uint32, vals []uint8) bool {
		pm := NewPhysMem()
		if _, err := pm.AddRegion(0, size, 0, "m"); err != nil {
			return false
		}
		model := make([]byte, size)
		buf := make([]byte, 2*PageSize4K)
		for i, op := range ops {
			off := uint64(op) % size
			n := uint64(op>>13)%uint64(len(buf)) + 1
			if off+n > size {
				n = size - off
			}
			p := buf[:n]
			if op&3 != 3 && i < len(vals) {
				// op&3 == 0 writes all zeros; otherwise a pattern with a
				// zero on every third byte.
				v := vals[i]
				if op&3 == 0 {
					v = 0
				}
				for j := range p {
					p[j] = v * byte(j%3)
				}
				copy(model[off:], p)
				if pm.Write(off, p) != nil {
					return false
				}
				continue
			}
			if pm.Read(off, p) != nil {
				return false
			}
			for j := range p {
				if p[j] != model[off+uint64(j)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
