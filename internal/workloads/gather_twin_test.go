package workloads

import (
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/testbed"
)

// The twins below run a workload's batched gather charging and a
// test-local element-wise reference (one Compute+Access per element) on
// identical fresh nodes and require identical per-core cycles: routing a
// charge loop through Env.AccessGather must not move a single cycle, a
// timer tick or an IPI.

// twinKernel boots a fresh Kitten enclave for one side of a twin run. A
// nil feat runs it natively.
func twinKernel(t *testing.T, feat *covirt.Features, cores int, nodes []int) *kitten.Kernel {
	t.Helper()
	spec := testbed.Spec{Guests: []testbed.Guest{{
		Name: "twin", Kind: testbed.Kitten, Cores: cores, Nodes: nodes, MemBytes: 2 << 30,
	}}}
	if feat != nil {
		spec.Covirt, spec.Features = true, *feat
	}
	node, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node.Kitten()
}

// requireSamePerCore runs both sides of a twin on fresh, identical nodes
// and compares their per-core cycles.
func requireSamePerCore(t *testing.T, feat *covirt.Features, cores int, nodes []int, batched, elementwise func(k *kitten.Kernel) (*Result, error)) {
	t.Helper()
	got, err := batched(twinKernel(t, feat, cores, nodes))
	if err != nil {
		t.Fatal(err)
	}
	want, err := elementwise(twinKernel(t, feat, cores, nodes))
	if err != nil {
		t.Fatal(err)
	}
	for r := range want.PerCore {
		if got.PerCore[r] != want.PerCore[r] {
			t.Errorf("rank %d: batched %d cycles, element-wise %d", r, got.PerCore[r], want.PerCore[r])
		}
	}
}

// chargeSpMVElementwise is the element-wise reference for chargeSpMV: the
// same streams and compute, with one Access per random gather.
func (c *sparseCharger) chargeSpMVElementwise() {
	e := c.env
	e.Stream(c.matrix.Start, c.rows*matrixBytesPerRow, false)
	e.Stream(c.vec.Start, c.rows*8, true)
	e.Stream(c.vec.Start, c.rows*8, false)
	for m := range c.gatherBuf {
		tgt := c.vec
		if c.remote.Size > 0 && m%2 == 1 {
			tgt = c.remote
		} else if c.scatter.Size > 0 {
			tgt = c.scatter
		}
		e.Access(tgt.Start+c.rng.Next()%(tgt.Size/8)*8, false, hw.AccessDRAM)
	}
	e.Compute(c.rows * 27 * 2)
}

// spmvTwin charges spmvs sparse matrix-vector products per rank of an
// n-row stencil problem, partitioned as cgSolver partitions it. As in the
// solver, a barrier keeps every rank's carve-out ahead of any rank's free,
// so no rank is handed memory another rank released.
func spmvTwin(t *testing.T, cores int, nodes []int, n int, gatherFrac float64, scatterBytes uint64, spmvs int) {
	t.Helper()
	run := func(elementwise bool) func(k *kitten.Kernel) (*Result, error) {
		return func(k *kitten.Kernel) (*Result, error) {
			ord, bar := NewRankOrder(cores), NewBarrier(cores)
			return runParallel(k, "spmv-twin", cores, func(e *kitten.Env, rank int) error {
				lo, hi := rank*n/cores, (rank+1)*n/cores
				ch := newSparseCharger(e, ord, rank, hi-lo, n, gatherFrac, scatterBytes, 0)
				defer ch.free()
				bar.Wait(e, rank)
				for i := 0; i < spmvs; i++ {
					if elementwise {
						ch.chargeSpMVElementwise()
					} else {
						ch.chargeSpMV()
					}
				}
				return nil
			})
		}
	}
	requireSamePerCore(t, nil, cores, nodes, run(false), run(true))
}

// lammpsTwin charges steps of a LAMMPS problem's neighbour-rebuild and
// table-lookup gathers, sized from a real LJ box as Lammps.Run sizes them.
func lammpsTwin(t *testing.T, p LammpsProblem, atoms, steps int) {
	t.Helper()
	prof := p.profile()
	md := getLJBox(atoms, 1)
	md.buildCells()
	pairs := uint64(float64(atoms) * md.averageNeighbors() * prof.pairDensity)
	putLJBox(md)
	lookups := uint64(float64(pairs) * prof.tableLookups)
	rebuilds := uint64(atoms / 4)
	run := func(elementwise bool) func(k *kitten.Kernel) (*Result, error) {
		charge := func(e *kitten.Env, rng *hw.Rand, buf []uint64, ext hw.Extent, write bool) {
			if !elementwise {
				chargeRandom(e, rng, buf, ext, write)
				return
			}
			for range buf {
				e.Access(ext.Start+rng.Next()%(ext.Size/8)*8, write, hw.AccessDRAM)
			}
		}
		return func(k *kitten.Kernel) (*Result, error) {
			return runParallel(k, "lammps-twin", 1, func(e *kitten.Env, rank int) error {
				neighExt := allocSpread(e, hw.AlignUp(uint64(atoms)*40*8, hw.PageSize4K))
				defer e.Free(neighExt)
				lookupExt := allocSpread(e, prof.lookupBytes)
				defer e.Free(lookupExt)
				rng := hw.NewRand(0xA5A5A5A5 ^ uint64(rank+7))
				scratch := make([]uint64, max(rebuilds, lookups))
				for step := 0; step < steps; step++ {
					if step%prof.rebuildEvery == 0 {
						charge(e, &rng, scratch[:rebuilds], neighExt, true)
						e.Compute(uint64(atoms) * 30)
					}
					e.Stream(neighExt.Start, pairs*8, false)
					e.Compute(pairs * prof.flopsPerPair)
					charge(e, &rng, scratch[:lookups], lookupExt, false)
				}
				return nil
			})
		}
	}
	requireSamePerCore(t, nil, 1, []int{0}, run(false), run(true))
}

// TestSpanRoutingEquivalence covers every workload whose charge loop is
// routed through AccessGather: GUPS updates (with the OpenMP schedule
// IPIs), HPCG and MiniFE sparse gathers (the 4-core/2-node layout
// alternates local and remote-node targets) and the LAMMPS rebuild and
// lookup gathers of Chute, the lookup-heaviest problem.
func TestSpanRoutingEquivalence(t *testing.T) {
	hpcgRows := 24 * 24 * 24
	t.Run("gups", func(t *testing.T) {
		r := &RandomAccess{LogTableSize: 22, Updates: 1 << 13, OMPChunk: 1536}
		requireSamePerCore(t, nil, 1, []int{0},
			func(k *kitten.Kernel) (*Result, error) { return r.Run(k, 1) },
			func(k *kitten.Kernel) (*Result, error) { return gupsElementwise(k, 1, r) })
	})
	t.Run("hpcg", func(t *testing.T) { spmvTwin(t, 1, []int{0}, hpcgRows, 0.08, 256<<20, 8) })
	t.Run("hpcg-parallel", func(t *testing.T) { spmvTwin(t, 4, []int{0, 1}, hpcgRows, 0.08, 256<<20, 8) })
	t.Run("minife", func(t *testing.T) { spmvTwin(t, 1, []int{0}, hpcgRows, 0.02, 0, 8) })
	t.Run("lammps-chute", func(t *testing.T) { lammpsTwin(t, Chute, 343, 6) })
}
