package covirt_test

import (
	"fmt"
	"sync"
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hobbes"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// addAndWarm grants count 2 MiB extents to enc and warms every enclave
// core's TLB with one page inside each, returning the extents.
func addAndWarm(t *testing.T, r *rig, enc *pisces.Enclave, k *kitten.Kernel, cores, count int) []hw.Extent {
	t.Helper()
	exts := make([]hw.Extent, 0, count)
	for i := 0; i < count; i++ {
		ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext)
	}
	for core := 0; core < cores; core++ {
		exts := exts
		task, _ := k.Spawn("warm", core, func(e *kitten.Env) error {
			for _, ext := range exts {
				e.Access(ext.Start+4096, false, hw.AccessHot)
			}
			return nil
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return exts
}

// TestEpochCoalescingEquivalence checks the coalesced shootdown against
// the property any invalidation scheme must meet: after a batched removal
// no enclave core keeps a translation for any removed page. Adjacent
// 2 MiB grants merge into one range, so the one epoch costs one flush per
// core instead of one per extent per core.
func TestEpochCoalescingEquivalence(t *testing.T) {
	const cores, extents = 2, 4
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
	exts := addAndWarm(t, r, enc, k, cores, extents)
	if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < cores; core++ {
		for _, ext := range exts {
			if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	if qs.Ingest.Epochs != 1 {
		t.Errorf("epochs = %d, want 1", qs.Ingest.Epochs)
	}
	if qs.Ingest.FlushCmds != cores {
		t.Errorf("flush cmds = %d, want %d (one merged range per core)", qs.Ingest.FlushCmds, cores)
	}
	if want := uint64(cores * (extents - 1)); qs.Ingest.FlushCmdsSaved != want {
		t.Errorf("flush cmds saved = %d, want %d", qs.Ingest.FlushCmdsSaved, want)
	}
}

// TestBatchedRemoveFlushAllThreshold: past the range-count threshold the
// coalesced epoch collapses to a single CmdFlushAll per core, and every
// removed translation is still gone.
func TestBatchedRemoveFlushAllThreshold(t *testing.T) {
	const cores = 2
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
	// Interleave two enclave-owned regions so merging cannot collapse the
	// batch below the threshold: grant 2 MiB extents, keeping every other
	// one, then remove the 9+ disjoint survivors in one batch.
	var keep, remove []hw.Extent
	for i := 0; i < 20; i++ {
		ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			remove = append(remove, ext)
		} else {
			keep = append(keep, ext)
		}
	}
	for core := 0; core < cores; core++ {
		remove := remove
		task, _ := k.Spawn("warm", core, func(e *kitten.Env) error {
			for _, ext := range remove {
				e.Access(ext.Start+4096, false, hw.AccessHot)
			}
			return nil
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.h.Pisces.RemoveMemoryBatch(enc, remove); err != nil {
		t.Fatal(err)
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	// 10 disjoint ranges > flushAllThreshold: one CmdFlushAll per core.
	if qs.Ingest.FlushCmds != cores {
		t.Errorf("flush cmds = %d, want %d (one CmdFlushAll per core)", qs.Ingest.FlushCmds, cores)
	}
	for core := 0; core < cores; core++ {
		for _, ext := range remove {
			if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
	for _, ext := range keep {
		if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOldGeometryBackpressure is the end-to-end regression for the hard
// "command queue full" failure: with the pre-batching 8-slot ring, a batch
// of 8 disjoint extents merges to 8 ranges (not past flushAllThreshold)
// plus the epoch marker — 9 records per core. The old code errored out of
// the unmap; the new path parks under backpressure and completes, charging
// the stall.
func TestOldGeometryBackpressure(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	feat := covirt.FeaturesMem
	feat.CmdQSlots = 8
	be, err := r.node.BootGuest(testbed.Guest{
		Name: "old", Cores: 2, Nodes: []int{0}, MemBytes: 128 << 20, Features: &feat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.h.Pisces.Destroy(be.Enc) })
	enc, k := be.Enc, be.Kitten

	// Remove every other grant so no two removed extents are adjacent.
	var exts []hw.Extent
	for i, ext := range addAndWarm(t, r, enc, k, 2, 16) {
		if i%2 == 0 {
			exts = append(exts, ext)
		}
	}
	if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
		t.Fatalf("batched remove overflowing the old geometry: %v", err)
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	if qs.Slots != 8 {
		t.Fatalf("ring slots = %d, want the old 8-slot geometry", qs.Slots)
	}
	if qs.Ingest.FlushCmds != 2*8 {
		t.Errorf("flush cmds = %d, want 8 ranges per core", qs.Ingest.FlushCmds)
	}
	if qs.Ingest.StallCycles == 0 {
		t.Error("overflowing the 8-slot ring charged no backpressure stall")
	}
	for core := 0; core < 2; core++ {
		for _, ext := range exts {
			if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
}

// TestQoSStarvation measures the admission isolation property: a
// grant-storming enclave is paced by its token bucket (admission waits
// accumulate) while an interleaved well-behaved victim is admitted without
// a single wait — its per-event apply cost, including p99, is identical to
// a run with no stormer at all.
func TestQoSStarvation(t *testing.T) {
	feat := covirt.FeaturesMem
	feat.QoS = covirt.QoS{Burst: 8, CyclesPerToken: 10000}
	const victimPairs = 4

	// victimCosts drives the victim's event sequence on rig r and returns
	// the per-remove-event costs observed on the bus.
	victimCosts := func(r *rig, victim *pisces.Enclave, storm func(i int)) []uint64 {
		var costs []uint64
		r.h.Master.Bus.Subscribe(func(ev *hobbes.Event) error {
			if ev.Kind == hobbes.EvMemRemovePost && ev.Enclave == victim {
				costs = append(costs, ev.Cost)
			}
			return nil
		})
		for i := 0; i < victimPairs; i++ {
			if storm != nil {
				storm(i)
			}
			ext, err := r.h.Pisces.AddMemory(victim, 0, 2<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.h.Pisces.RemoveMemory(victim, ext); err != nil {
				t.Fatal(err)
			}
		}
		return costs
	}

	// Control: the victim alone under the same QoS policy.
	ctl := newRig(t, feat)
	victimAlone, _ := ctl.boot(t, "victim", 1, []int{0}, 128<<20)
	baseline := victimCosts(ctl, victimAlone, nil)

	// Measured: the victim interleaved with a storming neighbor that
	// bursts 10 grant/revoke pairs (20 admissions) before every victim
	// pair.
	r := newRig(t, feat)
	stormer, _ := r.boot(t, "stormer", 1, []int{0}, 128<<20)
	victim, _ := r.boot(t, "victim", 1, []int{0}, 128<<20)
	costs := victimCosts(r, victim, func(int) {
		for s := 0; s < 10; s++ {
			ext, err := r.h.Pisces.AddMemory(stormer, 0, 2<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.h.Pisces.RemoveMemory(stormer, ext); err != nil {
				t.Fatal(err)
			}
		}
	})

	sq := r.ctrl.QueueStatsFor(stormer.ID)
	if sq.Ingest.AdmissionWaits == 0 {
		t.Error("storming enclave was never paced by its token bucket")
	}
	vq := r.ctrl.QueueStatsFor(victim.ID)
	if vq.Ingest.AdmissionWaits != 0 {
		t.Errorf("victim enclave hit %d admission waits; QoS leaked across enclaves", vq.Ingest.AdmissionWaits)
	}
	if len(costs) != len(baseline) {
		t.Fatalf("victim events = %d with stormer, %d alone", len(costs), len(baseline))
	}
	for i := range costs {
		if costs[i] != baseline[i] {
			t.Errorf("victim event %d cost %d with stormer, %d alone; p99 not flat", i, costs[i], baseline[i])
		}
	}
}

// TestDeepQoSBucketIsFree: an admission bucket deep enough that the
// traffic never drains it costs nothing. Grant, single-revoke and
// batched-revoke traffic charges the same per-event Cost and leaves every
// enclave core at the same guest TSC with and without the policy.
func TestDeepQoSBucketIsFree(t *testing.T) {
	// One core: a second enclave core idles between tasks and takes a
	// host-timing-dependent number of interrupts, so its TSC is not a
	// pure function of the traffic.
	const cores = 1
	type run struct {
		costs []uint64 // per bus event of the enclave, in emission order
		tsc   [cores]uint64
		qs    *covirt.QueueStats
	}
	drive := func(feat covirt.Features) run {
		var out run
		r := newRig(t, feat)
		enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
		r.h.Master.Bus.Subscribe(func(ev *hobbes.Event) error {
			if ev.Enclave == enc {
				out.costs = append(out.costs, ev.Cost)
			}
			return nil
		})
		exts := addAndWarm(t, r, enc, k, cores, 6)
		for _, ext := range exts[:2] {
			if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.h.Pisces.RemoveMemoryBatch(enc, exts[2:]); err != nil {
			t.Fatal(err)
		}
		for core := 0; core < cores; core++ {
			task, _ := k.Spawn("tsc", core, func(e *kitten.Env) error {
				out.tsc[core] = e.TSC()
				return nil
			})
			if err := task.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		out.qs = r.ctrl.QueueStatsFor(enc.ID)
		return out
	}
	deep := covirt.FeaturesMem
	deep.QoS = covirt.QoS{Burst: 4096, CyclesPerToken: 2000}
	base, got := drive(covirt.FeaturesMem), drive(deep)

	if got.qs.Ingest.AdmissionWaits != 0 {
		t.Errorf("deep bucket stalled %d admissions", got.qs.Ingest.AdmissionWaits)
	}
	if got.qs.Tokens >= deep.QoS.Burst {
		t.Errorf("bucket still full (%d tokens): admission never ran", got.qs.Tokens)
	}
	if len(got.costs) != len(base.costs) || len(base.costs) == 0 {
		t.Fatalf("events = %d with QoS, %d without", len(got.costs), len(base.costs))
	}
	for i := range base.costs {
		if got.costs[i] != base.costs[i] {
			t.Errorf("event %d cost %d with QoS, %d without", i, got.costs[i], base.costs[i])
		}
	}
	if got.tsc != base.tsc {
		t.Errorf("guest TSC %v with QoS, %v without", got.tsc, base.tsc)
	}
}

// TestConcurrentMultiEnclaveIngest is the -race stress for the ingest
// path: several enclaves push grant/revoke traffic (single events and
// batches) concurrently while an observer polls queue statistics. Any data
// race between pushers, the per-core drainers, and the stats snapshots is
// the failure.
func TestConcurrentMultiEnclaveIngest(t *testing.T) {
	const enclaves = 3
	feat := covirt.FeaturesMem
	feat.QoS = covirt.QoS{Burst: 64, CyclesPerToken: 1000}
	r := newRig(t, feat)
	// The rig donates three cores per node; the third two-core enclave
	// straddles both nodes.
	nodeSets := [][]int{{0}, {1}, {0, 1}}
	encs := make([]*pisces.Enclave, enclaves)
	for i := range encs {
		encs[i], _ = r.boot(t, fmt.Sprintf("lwk%d", i), 2, nodeSets[i], 64<<20)
	}

	iters := 24
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	observerDone := make(chan struct{})
	go func() { // observer: stats snapshots race against pushers/drainers
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, enc := range encs {
				_ = r.ctrl.QueueStatsFor(enc.ID)
			}
		}
	}()
	for i, enc := range encs {
		wg.Add(1)
		go func(node int, enc *pisces.Enclave) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if it%3 == 0 { // batched revoke
					var exts []hw.Extent
					for j := 0; j < 4; j++ {
						ext, err := r.h.Pisces.AddMemory(enc, node, 2<<20)
						if err != nil {
							t.Errorf("enclave %d: add: %v", enc.ID, err)
							return
						}
						exts = append(exts, ext)
					}
					if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
						t.Errorf("enclave %d: batch remove: %v", enc.ID, err)
						return
					}
					continue
				}
				ext, err := r.h.Pisces.AddMemory(enc, node, 2<<20)
				if err != nil {
					t.Errorf("enclave %d: add: %v", enc.ID, err)
					return
				}
				if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
					t.Errorf("enclave %d: remove: %v", enc.ID, err)
					return
				}
			}
		}(i%2, enc)
	}
	wg.Wait()
	close(stop)
	<-observerDone

	for _, enc := range encs {
		qs := r.ctrl.QueueStatsFor(enc.ID)
		if qs == nil {
			t.Fatalf("no stats for enclave %d", enc.ID)
		}
		if qs.Ingest.Epochs == 0 || qs.Ingest.FlushCmds == 0 {
			t.Errorf("enclave %d saw no ingest traffic: %+v", enc.ID, qs.Ingest)
		}
		for core, d := range qs.Depth {
			if d != 0 {
				t.Errorf("enclave %d core %d left %d undrained records", enc.ID, core, d)
			}
		}
	}
}
