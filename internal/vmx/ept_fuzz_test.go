package vmx

import (
	"testing"

	"covirt/internal/hw"
)

// eptModel is a per-4K-page reference model of an EPT over [0, modelSpan):
// each page records whether it is mapped, its permissions and the size of
// the leaf backing it. It re-derives leaf layout from first principles —
// the page-at-a-time bestPageSize loop for maps, recursive halving of
// partially covered leaves for unmaps — independently of the table code.
type eptModel struct {
	maxPage uint64
	pages   []modelPage
	gen     uint64
	byLevel [3]uint64 // mapped pages per backing leaf level
}

type modelPage struct {
	mapped bool
	perms  Perms
	level  uint8 // level of the leaf backing this page (0 == 4K)
}

func (p modelPage) size() uint64 { return levelPageSize(int(p.level)) }

func leafLevel(size uint64) uint8 {
	switch size {
	case hw.PageSize1G:
		return 2
	case hw.PageSize2M:
		return 1
	}
	return 0
}

// modelSpan covers two 1G leaves, so giant mappings and their splits occur.
const modelSpan = 2 * hw.PageSize1G

func newEPTModel(maxPage uint64) *eptModel {
	return &eptModel{maxPage: maxPage, pages: make([]modelPage, modelSpan/hw.PageSize4K)}
}

func (m *eptModel) page(gpa uint64) *modelPage { return &m.pages[gpa/hw.PageSize4K] }

// anyMapped reports whether a page of [lo, lo+size) is mapped.
func (m *eptModel) anyMapped(lo, size uint64) bool {
	for a := lo; a < lo+size; a += hw.PageSize4K {
		if m.page(a).mapped {
			return true
		}
	}
	return false
}

func (m *eptModel) set(lo, size uint64, p modelPage) {
	for a := lo; a < lo+size; a += hw.PageSize4K {
		old := m.page(a)
		if old.mapped {
			m.byLevel[old.level]--
		}
		if p.mapped {
			m.byLevel[p.level]++
		}
		*old = p
	}
}

// mapRange applies a map and reports whether it must fail. Leaves before
// the first overlapping one stay mapped, as in the EPT.
func (m *eptModel) mapRange(lo, size uint64, perms Perms) (fails bool) {
	end := lo + size
	for cur := lo; cur < end; {
		ps := bestPageSize(cur, end-cur)
		if m.maxPage > 0 && ps > m.maxPage {
			ps = m.maxPage
		}
		if m.anyMapped(cur, ps) {
			return true
		}
		m.set(cur, ps, modelPage{mapped: true, perms: perms, level: leafLevel(ps)})
		cur += ps
	}
	if size > 0 {
		m.gen++
	}
	return false
}

// unmapRange drops [lo, hi) and splits the large leaves it covers only in
// part.
func (m *eptModel) unmapRange(lo, size uint64) {
	if size == 0 {
		return
	}
	hi := lo + size
	for _, edge := range []uint64{lo, hi - hw.PageSize4K} {
		if p := m.page(edge); p.mapped && p.level > 0 {
			m.split(edge&^(p.size()-1), p.size(), p.perms, lo, hi)
		}
	}
	m.set(lo, size, modelPage{})
	m.gen++
}

// split replaces the leaf [base, base+size) by next-size-down leaves,
// recursing into those the range [lo, hi) still covers in part.
func (m *eptModel) split(base, size uint64, perms Perms, lo, hi uint64) {
	child := size >> eptIdxBits
	for c := base; c < base+size; c += child {
		switch {
		case c+child <= lo || c >= hi:
			m.set(c, child, modelPage{mapped: true, perms: perms, level: leafLevel(child)})
		case c >= lo && c+child <= hi:
			// Fully covered: the caller unmaps it.
		default:
			m.split(c, child, perms, lo, hi)
		}
	}
}

func (m *eptModel) stats() EPTStats {
	return EPTStats{
		Mapped4K: m.byLevel[0],
		Mapped2M: m.byLevel[1] / (hw.PageSize2M / hw.PageSize4K),
		Mapped1G: m.byLevel[2] / (hw.PageSize1G / hw.PageSize4K),
		Bytes:    (m.byLevel[0] + m.byLevel[1] + m.byLevel[2]) * hw.PageSize4K,
	}
}

// checkPage compares one page's walk against the model.
func checkPage(t *testing.T, e *EPT, m *eptModel, gpa uint64) {
	t.Helper()
	if gpa >= modelSpan {
		return
	}
	want := m.page(gpa)
	res, err := e.Walk(gpa, false)
	if e.Mapped(gpa) != (err == nil) {
		t.Fatalf("%#x: Mapped disagrees with Walk (%v)", gpa, err)
	}
	if !want.mapped || want.perms&PermRead == 0 {
		if err == nil {
			t.Fatalf("%#x: read walk = %+v, want violation (model %+v)", gpa, res, *want)
		}
	} else if err != nil || res.PageSize != want.size() || res.Perms != want.perms {
		t.Fatalf("%#x: read walk = %+v, %v; want %d-byte leaf perms %#x", gpa, res, err, want.size(), want.perms)
	}
	if _, err := e.Walk(gpa, true); (err == nil) != (want.mapped && want.perms&PermWrite != 0) {
		t.Fatalf("%#x: write walk err = %v, model %+v", gpa, err, *want)
	}
}

// checkCached requires every translation-cache hit for gpa under the
// current generation to agree with a fresh EPT.Walk, then caches the walk
// as TranslateGPA does, so later ops probe entries left stale by remaps.
func checkCached(t *testing.T, e *EPT, tc *transCache, gpa uint64) {
	t.Helper()
	if gpa >= modelSpan {
		return
	}
	gen := e.Gen()
	for _, write := range []bool{false, true} {
		res, err := e.Walk(gpa, write)
		if c, ok := tc.lookup(gpa, write, gen); ok {
			if err != nil || c.base != gpa&^(res.PageSize-1) || c.pageSize != res.PageSize ||
				c.levels != res.Levels || c.perms != res.Perms {
				t.Fatalf("%#x write=%v: cache hit %+v under gen %d, walk %+v, %v", gpa, write, *c, gen, res, err)
			}
		}
		if err == nil {
			tc.insert(gpa, res, gen)
		}
	}
}

// fuzzOp decodes one 6-byte operation record:
//
//	byte 0: bit 0 unmap, bits 1-3 perms, bits 4-5 start alignment
//	        (4K, 2M, 1G, 4K), bits 6-7 size unit (4K, 64K, 2M, 256M)
//	bytes 1-3: start page (modulo the model span, then aligned)
//	bytes 4-5: size in units (clipped to the model span)
func fuzzOp(rec []byte) (unmap bool, perms Perms, gpa, size uint64) {
	unmap = rec[0]&1 != 0
	perms = Perms(rec[0]>>1) & PermAll
	align := [...]uint64{hw.PageSize4K, hw.PageSize2M, hw.PageSize1G, hw.PageSize4K}[rec[0]>>4&3]
	unit := [...]uint64{hw.PageSize4K, 64 << 10, hw.PageSize2M, 256 << 20}[rec[0]>>6]
	gpa = (uint64(rec[1])<<16 | uint64(rec[2])<<8 | uint64(rec[3])) * hw.PageSize4K % modelSpan
	gpa &^= align - 1
	size = min((uint64(rec[4])<<8|uint64(rec[5]))*unit, modelSpan-gpa)
	return unmap, perms, gpa, size
}

// FuzzEPTMapUnmap runs random Map/Unmap sequences — including partial
// unmaps that split 1G and 2M leaves, and 4K- or 2M-capped EPTs — against
// the per-page model, checking walks, Mapped, Stats, Gen, that the shared
// leaf entries and the shared full 4K tables never change, and that a
// translation cache fed by the walks never hits with a translation the
// current EPT no longer has.
//
// The first byte picks the page-size cap (none, 4K, 2M); the rest is a
// sequence of fuzzOp records.
func FuzzEPTMapUnmap(f *testing.F) {
	f.Add([]byte{0, 0x2E, 0, 0, 0, 0, 1, 0x01, 0x02, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 0x0E, 0, 0, 0, 0, 0x40, 0x81, 0, 0, 7, 0, 3})
	f.Add([]byte{2, 0x9E, 0x04, 0, 0, 0, 9, 0x0F, 0x04, 0, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const recLen = 6
		if len(data) > 1+64*recLen {
			data = data[:1+64*recLen] // bound the work per input
		}
		maxPage := [...]uint64{0, hw.PageSize4K, hw.PageSize2M}[int(data[0])%3]
		e := NewEPT()
		e.SetMaxPageSize(maxPage)
		m := newEPTModel(maxPage)
		var tc transCache
		var probes []uint64
		for ops := data[1:]; len(ops) >= recLen; ops = ops[recLen:] {
			unmap, perms, gpa, size := fuzzOp(ops)
			if unmap {
				if err := e.UnmapRange(gpa, size); err != nil {
					t.Fatalf("UnmapRange(%#x, %#x): %v", gpa, size, err)
				}
				m.unmapRange(gpa, size)
			} else {
				fails := m.mapRange(gpa, size, perms)
				if err := e.MapRange(gpa, size, perms); (err != nil) != fails {
					t.Fatalf("MapRange(%#x, %#x, %#x) = %v, model fails = %v", gpa, size, perms, err, fails)
				}
			}
			if e.Gen() != m.gen {
				t.Fatalf("gen = %d, model %d", e.Gen(), m.gen)
			}
			if got, want := e.Stats(), m.stats(); got != want {
				t.Fatalf("after op [%#x,+%#x) unmap=%v: stats = %+v, model %+v", gpa, size, unmap, got, want)
			}
			for p := range leafEntries {
				if ent := leafEntry(Perms(p)); !ent.leaf || ent.perms != Perms(p) || ent.next != nil {
					t.Fatalf("shared leaf entry %d changed: %+v", p, *ent)
				}
			}
			checkSharedFull4K(t, e)
			probes = append(probes, gpa-hw.PageSize4K, gpa, gpa+size-hw.PageSize4K, gpa+size)
			for _, a := range probes {
				checkPage(t, e, m, a)
				checkCached(t, e, &tc, a)
			}
		}
		// A final sweep samples the whole span, one page per 2M at a
		// varying offset.
		for a := uint64(0); a < modelSpan; a += hw.PageSize2M {
			checkPage(t, e, m, a+(a>>21)*hw.PageSize4K%hw.PageSize2M)
		}
	})
}
