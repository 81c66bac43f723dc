package covirt

import (
	"sync"
	"testing"
	"testing/quick"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

func queueFixture(t *testing.T) (*hw.Machine, *cmdQueue, *hw.CPU) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	q, err := newCmdQueue(m.Mem, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, q, m.CPU(0)
}

func TestCmdQueuePushDrain(t *testing.T) {
	_, q, cpu := queueFixture(t)
	seq1, err := q.push(CmdPing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := q.push(CmdFlushRange, 0x1000, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq1+1 {
		t.Errorf("seqs = %d, %d", seq1, seq2)
	}
	if q.completed() != 0 {
		t.Error("completed before drain")
	}
	// Warm a TLB entry in the to-be-flushed range.
	cpu.TLB.Insert(0x1800, hw.PageSize4K)
	spent, err := q.drain(cpu)
	if err != nil || spent == 0 {
		t.Errorf("drain = %d, %v; want charged cycles, no error", spent, err)
	}
	if q.completed() != seq2 {
		t.Errorf("completed = %d, want %d", q.completed(), seq2)
	}
	if cpu.TLB.Lookup(0x1800) {
		t.Error("flush command did not flush")
	}
	// Draining an empty queue is free.
	if spent, _ := q.drain(cpu); spent != 0 {
		t.Error("empty drain charged cycles")
	}
}

func TestCmdQueueFlushAll(t *testing.T) {
	_, q, cpu := queueFixture(t)
	cpu.TLB.Insert(0x1000, hw.PageSize4K)
	cpu.TLB.Insert(hw.PageSize1G, hw.PageSize2M)
	if _, err := q.push(CmdFlushAll, 0, 0); err != nil {
		t.Fatal(err)
	}
	q.drain(cpu)
	if cpu.TLB.Len() != 0 {
		t.Error("entries survived CmdFlushAll")
	}
}

// The header words are guest-writable: a forged head or tail whose
// unsigned occupancy exceeds the ring must be reported as corruption, not
// index past the snapshot buffer or read as an empty queue. A legitimately
// full ring is not corruption.
func TestCmdQueueForgedIndicesReported(t *testing.T) {
	for _, tc := range []struct {
		name       string
		head, tail uint64
		corrupt    bool
	}{
		{"forged-head", 10000, 0, true},
		{"forged-tail", 0, 10000, true},
		{"one-past-full", cmdqDefaultSlots + 1, 0, true},
		{"full", cmdqDefaultSlots + 5, 5, false},
	} {
		_, q, cpu := queueFixture(t)
		// Forging the header the way a guest can is the point of this test.
		//covirt:allow queue-protocol guest-forged head
		if err := q.mem.Write64(q.base+cmdqOffHead, tc.head); err != nil {
			t.Fatal(err)
		}
		//covirt:allow queue-protocol guest-forged tail
		if err := q.mem.Write64(q.base+cmdqOffTail, tc.tail); err != nil {
			t.Fatal(err)
		}
		if _, err := q.drain(cpu); (err != nil) != tc.corrupt {
			t.Errorf("%s: drain err = %v, want corrupt=%v", tc.name, err, tc.corrupt)
		}
	}
}

// Regression for the old hard-failure semantics: overflowing the
// pre-batching 8-slot geometry must apply backpressure (publish what fits,
// ring the doorbell, park until the drainer frees slots) rather than fail.
// The doorbell here runs the drain synchronously, exactly as the NMI
// handler does on a parked idle core.
func TestCmdQueueFullBackpressure(t *testing.T) {
	m, _, _ := queueFixture(t)
	base := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	q, err := newCmdQueue(m.Mem, base+CmdQueueStride, 8) // old geometry
	if err != nil {
		t.Fatal(err)
	}
	cpu := m.CPU(0)
	for i := 0; i < 8; i++ {
		if _, err := q.push(CmdPing, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The ring is now full: a 16-record batch cannot fit even an empty
	// ring, so the push must stall at least once and still deliver all
	// records.
	recs := make([]cmdRec, 16)
	for i := range recs {
		recs[i] = cmdRec{CmdPing, 0, 0}
	}
	var doorbells int
	seq, wait, err := q.pushBatch(recs, func() { doorbells++; q.drain(cpu) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doorbells == 0 {
		t.Error("overflowing push never rang the doorbell")
	}
	if wait == 0 {
		t.Error("overflowing push charged no stall cycles")
	}
	if seq != 8+16 {
		t.Errorf("last seq = %d, want %d", seq, 8+16)
	}
	q.drain(cpu)
	if q.completed() != seq {
		t.Errorf("completed = %d, want %d", q.completed(), seq)
	}
	if q.depth() != 0 {
		t.Errorf("depth = %d after full drain", q.depth())
	}
}

// A pushBatch stalled on a full ring must abort when the enclave dies
// instead of parking forever.
func TestCmdQueueBackpressureAbortsOnDeath(t *testing.T) {
	m, _, _ := queueFixture(t)
	base := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	q, err := newCmdQueue(m.Mem, base+CmdQueueStride, 8)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)               // enclave already dead; no drainer will ever run
	recs := make([]cmdRec, 9) // one more than the ring holds
	for i := range recs {
		recs[i] = cmdRec{CmdPing, 0, 0}
	}
	if _, _, err := q.pushBatch(recs, func() {}, done); err == nil {
		t.Error("overflow push on dead enclave returned nil")
	}
}

func TestCmdQueueWaitCompleted(t *testing.T) {
	_, q, cpu := queueFixture(t)
	seq, err := q.push(CmdPing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := q.waitCompleted(seq, done); err != nil {
			t.Errorf("waitCompleted: %v", err)
		}
	}()
	q.drain(cpu)
	wg.Wait()
	// Waiting for an already-completed sequence returns immediately.
	if err := q.waitCompleted(seq, done); err != nil {
		t.Fatal(err)
	}
}

func TestCmdQueueWaitAbortsOnDeath(t *testing.T) {
	_, q, _ := queueFixture(t)
	seq, _ := q.push(CmdPing, 0, 0)
	done := make(chan struct{})
	close(done) // the enclave is already dead
	errc := make(chan error, 1)
	go func() { errc <- q.waitCompleted(seq, done) }()
	// Teardown wakes all waiters.
	q.wake()
	if err := <-errc; err == nil {
		t.Error("wait on dead enclave returned nil")
	}
}

// Regression: concurrent pushers (some parking on a full ring), a drainer,
// and waiters must be race-free, and a mid-flight enclave death must
// release every waiter. Run under -race (scripts/check.sh does).
func TestCmdQueueConcurrentPushDrainWake(t *testing.T) {
	m, q, _ := queueFixture(t)
	// The drainer runs on its own core, as the real hypervisor NMI
	// handler does, while controller threads push from elsewhere.
	drainCPU := m.CPU(1)
	done := make(chan struct{})
	stop := make(chan struct{})

	drained := make(chan struct{})
	go func() { // hypervisor: drain until told to stop
		defer close(drained)
		for {
			q.drain(drainCPU)
			select {
			case <-stop:
				q.drain(drainCPU)
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	const pushers = 4
	const perPusher = 64
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func() { // controller threads: push (parking when full), then wait
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				seq, err := q.push(CmdPing, 0, 0)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if err := q.waitCompleted(seq, done); err != nil {
					t.Errorf("waitCompleted(%d): %v", seq, err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-drained

	// Now the dying-enclave path: a waiter parked on a sequence that will
	// never complete must be released by teardown's wake.
	seq, err := q.push(CmdPing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- q.waitCompleted(seq, done) }()
	close(done) // enclave death
	q.wake()    // teardown releases waiters
	if err := <-errc; err == nil {
		t.Error("waiter survived enclave death")
	}
}

// Property: any sequence of flush-range commands leaves exactly the pages
// outside all flushed ranges in the TLB.
func TestCmdQueueFlushProperty(t *testing.T) {
	f := func(pages [6]uint8, flushes [3]uint8) bool {
		spec := hw.DefaultSpec()
		spec.MemPerNode = 1 << 30
		m, err := hw.NewMachine(spec)
		if err != nil {
			return false
		}
		q, err := newCmdQueue(m.Mem, hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K), 0)
		if err != nil {
			return false
		}
		cpu := m.CPU(0)
		for _, p := range pages {
			cpu.TLB.Insert(uint64(p)*hw.PageSize4K, hw.PageSize4K)
		}
		flushed := map[uint64]bool{}
		for _, f := range flushes {
			start := uint64(f%32) * hw.PageSize4K
			if _, err := q.push(CmdFlushRange, start, 2*hw.PageSize4K); err != nil {
				return false
			}
			flushed[start] = true
			flushed[start+hw.PageSize4K] = true
		}
		q.drain(cpu)
		for _, p := range pages {
			base := uint64(p) * hw.PageSize4K
			want := !flushed[base]
			if cpu.TLB.Lookup(base) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: mergeExtents returns ranges sorted by start, pairwise disjoint
// and non-adjacent (adjacent ones would have merged), covering exactly the
// pages of the input union.
func TestMergeExtentsProperty(t *testing.T) {
	const window = 64 // pages, small enough that overlaps are common
	f := func(raw [][2]uint8) bool {
		exts := make([]hw.Extent, len(raw))
		want := make(map[uint64]bool)
		for i, r := range raw {
			start := uint64(r[0]%window) * hw.PageSize4K
			size := uint64(r[1]%8+1) * hw.PageSize4K
			exts[i] = hw.Extent{Start: start, Size: size}
			for a := start; a < start+size; a += hw.PageSize4K {
				want[a] = true
			}
		}
		out := mergeExtents(exts)
		got := make(map[uint64]bool)
		for i, e := range out {
			if e.Size == 0 {
				return false
			}
			if i > 0 && out[i-1].Start+out[i-1].Size >= e.Start {
				return false // unsorted, overlapping or adjacent
			}
			for a := e.Start; a < e.Start+e.Size; a += hw.PageSize4K {
				got[a] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for a := range want {
			if !got[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFeaturesString(t *testing.T) {
	cases := []struct {
		f    Features
		want string
	}{
		{FeaturesNone, "none"},
		{FeaturesMem, "mem+abort"},
		{FeaturesMemIPIVAPIC, "mem+ipi(vapic)+abort"},
		{FeaturesMemIPIPIV, "mem+ipi(piv)+abort"},
		{FeaturesAll, "mem+ipi(piv)+msr+io+abort"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.f, got, c.want)
		}
	}
}

func TestIPIFilterSemantics(t *testing.T) {
	f := NewIPIFilter([]int{3, 4}, nil)
	// Own cores: any vector.
	if !f.Permitted(3, 0x10) || !f.Permitted(4, 0xFE) {
		t.Error("own-core IPI denied")
	}
	// Foreign core: denied until granted.
	if f.Permitted(7, 0x10) {
		t.Error("foreign IPI permitted without grant")
	}
	f.Grant(7, 0x10, authority.Cap{})
	if !f.Permitted(7, 0x10) {
		t.Error("granted IPI denied")
	}
	if f.Permitted(7, 0x11) {
		t.Error("grant leaked across vectors")
	}
	f.Revoke(7, 0x10)
	if f.Permitted(7, 0x10) {
		t.Error("revoked IPI permitted")
	}
	if f.Dropped.Load() != 3 {
		t.Errorf("dropped = %d, want 3", f.Dropped.Load())
	}
	if f.Checked.Load() != 6 {
		t.Errorf("checked = %d, want 6", f.Checked.Load())
	}
}

// With an authority table attached, a grant stops working the instant its
// backing key is revoked — no filter edit required.
func TestIPIFilterCapLiveness(t *testing.T) {
	tab := authority.NewTable()
	f := NewIPIFilter([]int{0}, tab)
	c := tab.Mint(1, authority.KindIPI, authority.RightSend, authority.IPIScope(7, 0x10), "test-ipi")
	f.Grant(7, 0x10, c)
	if !f.Permitted(7, 0x10) {
		t.Fatal("granted IPI denied")
	}
	if _, err := tab.Revoke(c); err != nil {
		t.Fatal(err)
	}
	if f.Permitted(7, 0x10) {
		t.Error("IPI permitted through a revoked key")
	}
}

func TestCovirtBootParamsRoundTrip(t *testing.T) {
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	addr := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	in := &BootParams{NumCPUs: 4, CmdQueueBase: 0x10000, CmdQueueStride: CmdQueueStride, CmdQueueSlots: cmdqDefaultSlots, PiscesParams: 0x1000}
	if err := encodeBootParams(m.Mem, addr, in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeBootParams(m.Mem, addr)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if err := m.Mem.Write64(addr, 0xBAD); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBootParams(m.Mem, addr); err == nil {
		t.Error("bad magic accepted")
	}
}
