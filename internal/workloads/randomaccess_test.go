package workloads

import (
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// fillUpdatesRef is the element-wise form of fillUpdates: one RNG draw,
// logical index and table XOR per update.
func fillUpdatesRef(buf []uint64, rng *hw.Rand, table []uint64, logicalWords uint64, ext hw.Extent) {
	for i := range buf {
		v := rng.Next()
		idx := v & (logicalWords - 1)
		table[idx&uint64(len(table)-1)] ^= v
		buf[i] = ext.Start + idx*8
	}
}

// fillRandomAddrsRef is the element-wise form of fillRandomAddrs.
func fillRandomAddrsRef(buf []uint64, rng *hw.Rand, ext hw.Extent) {
	for i := range buf {
		buf[i] = ext.Start + (rng.Next()%(ext.Size/8))*8
	}
}

// TestFillUpdatesMatchesReference drives fillUpdates and its element-wise
// form from identical RNG states over a real table smaller than the
// logical one, requiring identical addresses, final RNG state and table.
func TestFillUpdatesMatchesReference(t *testing.T) {
	ext := hw.Extent{Start: 0x40000000, Size: 8 << 25}
	for seed := uint64(1); seed <= 5; seed++ {
		rngA, rngB := hw.NewRand(seed), hw.NewRand(seed)
		tabA, tabB := make([]uint64, 1<<10), make([]uint64, 1<<10)
		for i := range tabA {
			tabA[i], tabB[i] = uint64(i), uint64(i)
		}
		got, want := make([]uint64, 3001), make([]uint64, 3001)
		// Two segments, as Run's chunked loop issues them.
		fillUpdates(got[:1000], &rngA, tabA, 1<<25, ext)
		fillUpdates(got[1000:], &rngA, tabA, 1<<25, ext)
		fillUpdatesRef(want, &rngB, tabB, 1<<25, ext)
		if rngA != rngB {
			t.Fatalf("seed %d: RNG states diverge after fill", seed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: addr[%d] = %#x, reference %#x", seed, i, got[i], want[i])
			}
		}
		for i := range tabA {
			if tabA[i] != tabB[i] {
				t.Fatalf("seed %d: table[%d] = %#x, reference %#x", seed, i, tabA[i], tabB[i])
			}
		}
	}
}

// TestFillRandomAddrsMatchesReference does the same for the LAMMPS
// rebuild/lookup address streams, over a non-power-of-two extent.
func TestFillRandomAddrsMatchesReference(t *testing.T) {
	ext := hw.Extent{Start: 0x200000, Size: 13825 * 8}
	for seed := uint64(1); seed <= 5; seed++ {
		rngA, rngB := hw.NewRand(seed), hw.NewRand(seed)
		got, want := make([]uint64, 4096), make([]uint64, 4096)
		fillRandomAddrs(got, &rngA, ext)
		fillRandomAddrsRef(want, &rngB, ext)
		if rngA != rngB {
			t.Fatalf("seed %d: RNG states diverge after fill", seed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: addr[%d] = %#x, reference %#x", seed, i, got[i], want[i])
			}
		}
	}
}

// gupsElementwise is the element-wise reference for RandomAccess.Run: the
// same set-up, carve-out and RNG seeding, then one Compute(6)+Access pair
// per update with the OpenMP dynamic-schedule IPI after every OMPChunk-th
// update.
func gupsElementwise(k *kitten.Kernel, threads int, r *RandomAccess) (*Result, error) {
	logicalWords := uint64(1) << r.LogTableSize
	realWords := min(logicalWords, 1<<21)
	chunk := r.OMPChunk
	ord := NewRankOrder(threads)
	return runParallel(k, r.Name(), threads, func(e *kitten.Env, rank int) error {
		table := make([]uint64, realWords)
		var ext hw.Extent
		ord.Do(rank, func() { ext = allocSpread(e, logicalWords*8) })
		defer e.Free(ext)
		rng := hw.NewRand(0x243F6A8885A308D3 ^ r.Seed ^ uint64(rank+1))
		for u := 0; u < r.Updates; u++ {
			v := rng.Next()
			idx := v & (logicalWords - 1)
			table[idx&(realWords-1)] ^= v
			e.Compute(6)
			e.Access(ext.Start+idx*8, true, hw.AccessDRAM)
			if u%chunk == chunk-1 {
				e.SendIPI(rank, VectorOMPSched)
			}
		}
		return nil
	})
}

// TestGUPSScheduleIPIMatchesElementwise pins the batched GUPS loop to the
// element-wise reference on identical nodes. OMPChunk does not divide
// Updates, so a schedule IPI issued one segment early or late changes the
// IPI count and with it the per-core cycles.
func TestGUPSScheduleIPIMatchesElementwise(t *testing.T) {
	mk := func() *RandomAccess {
		return &RandomAccess{LogTableSize: 22, Updates: 5000, OMPChunk: 1536, Seed: 3}
	}
	ipi := covirt.FeaturesMemIPIVAPIC // each schedule IPI is a trapped ICR write
	requireSamePerCore(t, &ipi, 2, []int{0},
		func(k *kitten.Kernel) (*Result, error) { return mk().Run(k, 2) },
		func(k *kitten.Kernel) (*Result, error) { return gupsElementwise(k, 2, mk()) })
}
