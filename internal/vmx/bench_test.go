package vmx

import (
	"testing"

	"covirt/internal/hw"
)

// benchEPT builds an EPT with 512 MiB of 2M-coalesced leaves at a fixed
// base — enough distinct leaves that walk benchmarks rotate through the
// table instead of hammering one entry.
func benchEPT(tb testing.TB) (*EPT, uint64) {
	base := uint64(1) << 31
	ept := NewEPT()
	if err := ept.MapRange(base, 512<<20, PermAll); err != nil {
		tb.Fatal(err)
	}
	return ept, base
}

// BenchmarkEPTWalkHit measures the lock-free walk of mapped addresses —
// the per-TLB-miss cost every guest memory access pays when the
// translation cache misses.
func BenchmarkEPTWalkHit(b *testing.B) {
	ept, base := benchEPT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i%256)<<21
		if _, err := ept.Walk(addr, i%4 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPTWalkMiss measures the violation path: a walk that reaches an
// unmapped slot and materializes the fault.
func BenchmarkEPTWalkMiss(b *testing.B) {
	ept, base := benchEPT(b)
	unmapped := base + 1<<30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ept.Walk(unmapped+uint64(i%256)<<21, false); err == nil {
			b.Fatal("walk of unmapped gpa succeeded")
		}
	}
}

// BenchmarkEPTWalkParallel measures concurrent walkers over one shared EPT
// — the contention profile of a multi-core enclave where every core TLB-
// misses at once. With atomic entry publication this scales linearly; the
// old RWMutex read path serialized on the lock word's cache line.
func BenchmarkEPTWalkParallel(b *testing.B) {
	ept, base := benchEPT(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			addr := base + uint64(i%256)<<21
			if _, err := ept.Walk(addr, false); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkEPTMapRange4KOnly measures building a 4K-capped EPT for 64 MiB
// (16384 leaves) — the set-up cost of the large-page-coalescing ablation,
// where every guest page is its own leaf.
func BenchmarkEPTMapRange4KOnly(b *testing.B) {
	const size = 64 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ept := NewEPT()
		ept.SetMaxPageSize(hw.PageSize4K)
		if err := ept.MapRange(1<<30, size, PermAll); err != nil {
			b.Fatal(err)
		}
	}
}
