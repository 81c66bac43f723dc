package authority_test

import (
	"math/bits"
	"testing"

	"covirt/internal/authority"
)

// end128 returns Start+Size of a memory scope as a 128-bit (hi, lo) pair,
// so ranges that run past 2^64 compare exactly.
func end128(s authority.Scope) (hi, lo uint64) {
	lo, hi = bits.Add64(s.Start, s.Size, 0)
	return hi, lo
}

// containsRef is the reference for KindMemory containment: inner starts at
// or after outer and ends at or before it, both ends compared in 128 bits.
func containsRef(outer, inner authority.Scope) bool {
	if outer.Wild {
		return true
	}
	if inner.Wild {
		return false
	}
	if inner.Start < outer.Start {
		return false
	}
	ihi, ilo := end128(inner)
	ohi, olo := end128(outer)
	return ihi < ohi || ihi == ohi && ilo <= olo
}

// FuzzScopeContains checks Scope.Contains for KindMemory against the
// 128-bit reference, so no inner range that ends past the outer one is
// ever accepted, a Wild outer covers everything and a Wild inner is
// covered only by a Wild outer. It also checks that an accepted inner
// range stays accepted when narrowed (trimmed by cut at the front and
// trim at the back).
func FuzzScopeContains(f *testing.F) {
	f.Add(uint64(0x400000), uint64(64<<20), uint64(0x620000), uint64(1<<64-2<<20), uint64(0), uint64(0), uint8(0))
	f.Add(uint64(0x400000), uint64(64<<20), uint64(0x43FF000), uint64(0x1000), uint64(0x800), uint64(0x100), uint8(0))
	f.Add(uint64(0x400000), uint64(64<<20), uint64(0x4400000), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(uint64(1<<64-4096), uint64(8192), uint64(1<<64-4096), uint64(8192), uint64(4096), uint64(0), uint8(0))
	f.Add(uint64(0), uint64(0), uint64(7), uint64(1), uint64(0), uint64(0), uint8(1))
	f.Add(uint64(0), uint64(1<<64-1), uint64(0), uint64(0), uint64(0), uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, oStart, oSize, iStart, iSize, cut, trim uint64, wild uint8) {
		outer := authority.MemScope(oStart, oSize)
		outer.Wild = wild&1 != 0
		inner := authority.MemScope(iStart, iSize)
		inner.Wild = wild&2 != 0
		got := outer.Contains(authority.KindMemory, inner)
		if want := containsRef(outer, inner); got != want {
			t.Fatalf("%s contains %s = %v, reference %v", outer.String(authority.KindMemory),
				inner.String(authority.KindMemory), got, want)
		}
		if !outer.Contains(authority.KindMemory, outer) {
			t.Fatalf("%s does not contain itself", outer.String(authority.KindMemory))
		}
		if !got || inner.Wild {
			return
		}
		// Bring cut and trim into range; a size of 2^64-1 admits any value.
		if iSize < 1<<64-1 {
			cut %= iSize + 1
		}
		if rest := iSize - cut; rest < 1<<64-1 {
			trim %= rest + 1
		}
		start, carry := bits.Add64(iStart, cut, 0)
		if carry != 0 {
			return // only a range that already runs past 2^64 narrows past it
		}
		narrow := authority.MemScope(start, iSize-cut-trim)
		if !outer.Contains(authority.KindMemory, narrow) || !inner.Contains(authority.KindMemory, narrow) {
			t.Fatalf("%s contains %s but not its narrowing %s", outer.String(authority.KindMemory),
				inner.String(authority.KindMemory), narrow.String(authority.KindMemory))
		}
	})
}
