package covirt

import (
	"fmt"
	"sync"

	"covirt/internal/hw"
	"covirt/internal/vmx"
)

// invalidateTransCache drops the VCPU's cached nested walks alongside a TLB
// shootdown, keeping both translation caches on the same doorbell. The
// drain runs on the guest CPU's own execution goroutine (NMI handler), so
// touching the VCPU-owned cache is safe.
func invalidateTransCache(cpu *hw.CPU) {
	if v, ok := cpu.Virt.(*vmx.VCPU); ok {
		v.InvalidateTransCache()
	}
}

// Hypervisor command types carried on the command queue.
const (
	// CmdFlushAll invalidates the CPU's entire TLB (INVEPT global).
	CmdFlushAll uint64 = iota + 1
	// CmdFlushRange invalidates translations overlapping [arg0, arg0+arg1).
	CmdFlushRange
	// CmdPing is a no-op synchronization point.
	CmdPing
	// CmdReloadVMCS re-serializes the virtualization context to the CPU
	// (after controller edits to non-cached VMCS fields it is a no-op in
	// this simulation beyond its cost).
	CmdReloadVMCS
	// CmdEpoch publishes arg0 as the applied shootdown epoch: every
	// command pushed before this marker is guaranteed processed once the
	// header's epoch word reaches arg0. Waiters block on "epoch E
	// applied" instead of per-command sequence numbers.
	CmdEpoch
)

// Command queue shared-memory geometry. Each enclave CPU has one queue in
// the Covirt boot-parameter area; commands are fixed-size records.
const (
	// cmdqDefaultSlots is the ring capacity used when the enclave's
	// features don't request another size (Features.CmdQSlots). Sized for
	// bursts: a revocation storm's merged flush batch fits without ever
	// touching the backpressure path.
	cmdqDefaultSlots = 64
	cmdqSlotSize     = 32 // type, arg0, arg1, seq
	cmdqHdrSize      = 32 // head, tail, completed, epoch
	// CmdQueueStride is the per-CPU footprint of one command queue: the
	// header plus cmdqMaxSlots records, padded to a page.
	CmdQueueStride = 0x1000
	// cmdqMaxSlots is the largest ring that fits in one stride.
	cmdqMaxSlots = 64
)

// Header word offsets within a queue's base page.
const (
	cmdqOffHead      = 0
	cmdqOffTail      = 8
	cmdqOffCompleted = 16
	cmdqOffEpoch     = 24
)

// Cycle charges local to the queue protocol.
const (
	// cmdqFetchCycles is the hypervisor-side fetch/decode of one record.
	cmdqFetchCycles = 80
	// cmdqStallCycles is charged to the pusher each time it finds the
	// ring full and must park until the drainer frees slots. The charge
	// models the doorbell + wait handshake; the number of stalls depends
	// on drain progress, so this cost only appears on genuinely
	// overloaded paths, never on the deterministic golden workloads
	// (their bursts fit the ring).
	cmdqStallCycles = 500
)

// cmdRec is one fixed-size command record as the controller composes it
// (the sequence number is assigned inside pushBatch).
type cmdRec struct {
	Typ, Arg0, Arg1 uint64
}

// cmdQueue is the controller->hypervisor channel for one enclave CPU. The
// queue contents live in shared physical memory (written natively by the
// controller, read natively by the root-mode hypervisor); the Go-side
// condition variable stands in for the hardware's NMI wait loop.
type cmdQueue struct {
	mem   *hw.PhysMem
	base  uint64
	slots uint64 // ring capacity, power of two
	mask  uint64 // slots - 1

	mu   sync.Mutex
	cond *sync.Cond
	seq  uint64

	// scratch is the drainer's snapshot buffer. The drain runs on the
	// guest CPU's own execution goroutine, one drainer per queue, so the
	// buffer is reused across NMIs without allocation.
	scratch [][4]uint64
}

// newCmdQueue initializes a queue at base with the given ring capacity
// (0 selects the default). Capacity must be a power of two that fits the
// per-CPU stride.
func newCmdQueue(mem *hw.PhysMem, base uint64, slots uint64) (*cmdQueue, error) {
	if slots == 0 {
		slots = cmdqDefaultSlots
	}
	if slots&(slots-1) != 0 || slots > cmdqMaxSlots {
		return nil, fmt.Errorf("covirt: command-queue capacity %d not a power of two <= %d", slots, cmdqMaxSlots)
	}
	q := &cmdQueue{mem: mem, base: base, slots: slots, mask: slots - 1}
	q.cond = sync.NewCond(&q.mu)
	q.scratch = make([][4]uint64, slots)
	for off := uint64(0); off < cmdqHdrSize; off += 8 {
		if err := mem.Write64(base+off, 0); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// push enqueues a single command, returning its sequence number. It is the
// one-record case of pushBatch and shares its backpressure behaviour.
func (q *cmdQueue) push(typ, arg0, arg1 uint64) (uint64, error) {
	seq, _, err := q.pushBatch([]cmdRec{{typ, arg0, arg1}}, nil, nil)
	return seq, err
}

// pushBatch enqueues all records under as few critical sections as
// possible: every record that fits the ring is written and then made
// visible with ONE head publish. When the ring is full the push applies
// bounded backpressure instead of failing — it publishes what fits, rings
// doorbell (so the drainer is guaranteed to be on its way), and parks on
// the queue's condition variable until slots free up, charging
// cmdqStallCycles per stall to the returned wait cost. A closed done
// channel (enclave death) aborts the wait; teardown's wake releases the
// parked pusher.
//
// It returns the sequence number of the last record pushed and the cycles
// spent stalled on a full ring.
func (q *cmdQueue) pushBatch(recs []cmdRec, doorbell func(), done <-chan struct{}) (uint64, uint64, error) {
	var lastSeq, waitCycles uint64
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(recs) > 0 {
		head, err := q.mem.Read64(q.base + cmdqOffHead)
		if err != nil {
			return 0, waitCycles, err
		}
		tail, err := q.mem.Read64(q.base + cmdqOffTail)
		if err != nil {
			return 0, waitCycles, err
		}
		free := q.slots - (head - tail)
		if free == 0 {
			select {
			case <-done:
				return 0, waitCycles, fmt.Errorf("covirt: enclave died with %d commands unpushed", len(recs))
			default:
			}
			waitCycles += cmdqStallCycles
			if doorbell != nil {
				q.ringDoorbell(doorbell)
				// The drainer may have freed slots (and broadcast) while
				// the lock was dropped; re-checking occupancy before
				// parking makes that wakeup impossible to lose — any
				// later completion publish broadcasts under this lock.
				h, e1 := q.mem.Read64(q.base + cmdqOffHead)
				t, e2 := q.mem.Read64(q.base + cmdqOffTail)
				if e1 == nil && e2 == nil && q.slots-(h-t) > 0 {
					continue
				}
			}
			// Wait with a wakeup guarantee: the drainer broadcasts after
			// each completion publish, and teardown broadcasts too.
			q.cond.Wait()
			continue
		}
		n := uint64(len(recs))
		if n > free {
			n = free
		}
		for i := uint64(0); i < n; i++ {
			q.seq++
			slot := q.base + cmdqHdrSize + ((head+i)&q.mask)*cmdqSlotSize
			for j, v := range [4]uint64{recs[i].Typ, recs[i].Arg0, recs[i].Arg1, q.seq} {
				if err := q.mem.Write64(slot+uint64(j)*8, v); err != nil {
					return 0, waitCycles, err
				}
			}
		}
		lastSeq = q.seq
		// Slot contents are fully written; one head store publishes the
		// whole chunk (the hardware analogue is a release store the
		// drainer's acquire load of head pairs with).
		if err := q.mem.Write64(q.base+cmdqOffHead, head+n); err != nil {
			return 0, waitCycles, err
		}
		recs = recs[n:]
	}
	return lastSeq, waitCycles, nil
}

// ringDoorbell releases the queue lock around the doorbell and re-acquires
// it before returning: the drainer needs the lock to fetch, and the NMI
// raise may synchronously reach a core parked in its idle loop. Called with
// q.mu held.
func (q *cmdQueue) ringDoorbell(doorbell func()) {
	q.mu.Unlock()
	defer q.mu.Lock()
	doorbell()
}

// depth returns the number of pushed-but-undrained records.
func (q *cmdQueue) depth() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	head, err := q.mem.Read64(q.base + cmdqOffHead)
	if err != nil {
		return 0
	}
	tail, err := q.mem.Read64(q.base + cmdqOffTail)
	if err != nil {
		return 0
	}
	return head - tail
}

// completed returns the last completed sequence number.
func (q *cmdQueue) completed() uint64 {
	v, err := q.mem.Read64(q.base + cmdqOffCompleted)
	if err != nil {
		return 0
	}
	return v
}

// epochApplied returns the last applied shootdown epoch.
func (q *cmdQueue) epochApplied() uint64 {
	v, err := q.mem.Read64(q.base + cmdqOffEpoch)
	if err != nil {
		return 0
	}
	return v
}

// waitCompleted blocks until the hypervisor reports seq complete or done
// closes (enclave death).
func (q *cmdQueue) waitCompleted(seq uint64, done <-chan struct{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.completed() < seq {
		select {
		case <-done:
			return fmt.Errorf("covirt: enclave died before command %d completed", seq)
		default:
		}
		// Wait with a wakeup guarantee: the hypervisor broadcasts after
		// each drain pass, and enclave teardown broadcasts too.
		q.cond.Wait()
	}
	return nil
}

// waitEpoch blocks until the hypervisor reports epoch e applied or done
// closes (enclave death).
func (q *cmdQueue) waitEpoch(e uint64, done <-chan struct{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.epochApplied() < e {
		select {
		case <-done:
			return fmt.Errorf("covirt: enclave died before epoch %d applied", e)
		default:
		}
		q.cond.Wait()
	}
	return nil
}

// wake unblocks waiters (teardown). The broadcast runs under the lock so
// it cannot land between a waiter's done-channel check and its cond.Wait
// and be lost — the waiter would then sleep forever on a dead queue.
func (q *cmdQueue) wake() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cond.Broadcast()
}

// flushRangeLeaves counts the 2 MiB translation leaves overlapping
// [start, start+size): the units a ranged shootdown actually invalidates,
// and therefore the units it is charged in. A merged range prices exactly
// like the sum of its parts.
func flushRangeLeaves(start, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	lo := start &^ (hw.PageSize2M - 1)
	hi := hw.AlignUp(start+size, hw.PageSize2M)
	return (hi - lo) / hw.PageSize2M
}

// drain processes all pending commands on cpu (the hypervisor's NMI
// handler body). Each pass snapshots the whole ring under one critical
// section, applies every record, then retires them with one tail advance,
// one completion publish, and one broadcast — the NMI does not
// lock-roundtrip per record. It returns cycles spent, and an error when
// the ring indices are corrupt (the caller terminates the enclave).
func (q *cmdQueue) drain(cpu *hw.CPU) (uint64, error) {
	cs := cpu.Costs()
	var spent uint64
	for {
		recs, tail, err := q.fetchAll()
		if err != nil || len(recs) == 0 {
			// Corrupt indices, an empty queue, or the backing region
			// vanished mid-teardown (waiters are then released by
			// teardown's wake).
			return spent, err
		}
		var lastSeq, epoch uint64
		for _, rec := range recs {
			spent += cmdqFetchCycles // fetch/decode of one fixed-size command
			switch rec[0] {
			case CmdFlushAll:
				cpu.TLB.FlushAll()
				invalidateTransCache(cpu)
				spent += cs.TLBFlushAll
			case CmdFlushRange:
				cpu.TLB.FlushRange(rec[1], rec[2])
				invalidateTransCache(cpu)
				spent += flushRangeLeaves(rec[1], rec[2]) * cs.TLBFlushPage
			case CmdReloadVMCS:
				spent += cs.VMEntry / 2
			case CmdEpoch:
				if rec[1] > epoch {
					epoch = rec[1]
				}
			case CmdPing:
				// Synchronization only.
			}
			lastSeq = rec[3]
		}
		if err := q.publishCompletion(tail, uint64(len(recs)), lastSeq, epoch); err != nil {
			return spent, nil
		}
	}
}

// fetchAll snapshots every pending command record and the tail index under
// one critical section. The locked read is the simulation's stand-in for
// the hardware's acquire-ordered head load: the controller publishes slot
// contents before advancing the head pointer inside pushBatch's critical
// section. The header sits in guest-mapped memory, so a guest can forge
// head or tail: an occupancy past the ring capacity — computed unsigned,
// which also catches tail > head — is reported as corruption. A read
// failure (the region vanished mid-teardown) yields an empty snapshot.
func (q *cmdQueue) fetchAll() ([][4]uint64, uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	head, err := q.mem.Read64(q.base + cmdqOffHead)
	if err != nil {
		return nil, 0, nil
	}
	tail, err := q.mem.Read64(q.base + cmdqOffTail)
	if err != nil {
		return nil, 0, nil
	}
	n := head - tail
	if n > q.slots {
		return nil, 0, fmt.Errorf("head %d, tail %d: %d records exceed the %d-slot ring", head, tail, n, q.slots)
	}
	// scratch was sized to q.slots in newCmdQueue, so the snapshot is
	// written in place — the NMI-path drain never allocates.
	for k := uint64(0); k < n; k++ {
		slot := q.base + cmdqHdrSize + ((tail+k)&q.mask)*cmdqSlotSize
		var rec [4]uint64
		for i := range rec {
			v, err := q.mem.Read64(slot + uint64(i)*8)
			if err != nil {
				return nil, 0, nil
			}
			rec[i] = v
		}
		q.scratch[k] = rec
	}
	return q.scratch[:n], tail, nil
}

// publishCompletion retires n drained records in one critical section: the
// tail advances, seq is published as the last completed command, and —
// when the batch carried an epoch marker — the applied-epoch word is
// raised. The epoch publish is guarded to be monotonic: a stale marker
// (reordered relative to a newer epoch already applied) must never move
// the counter backwards, or waiters would unblock on invalidations that
// have not happened. The broadcast runs under the lock so a controller
// thread between its check and cond.Wait cannot miss the wakeup, and it
// fires even when the backing region vanished mid-teardown so no waiter is
// left hanging on a dead queue.
func (q *cmdQueue) publishCompletion(tail, n, seq, epoch uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.cond.Broadcast()
	if err := q.mem.Write64(q.base+cmdqOffTail, tail+n); err != nil {
		return err
	}
	if err := q.mem.Write64(q.base+cmdqOffCompleted, seq); err != nil {
		return err
	}
	if epoch > q.epochApplied() {
		if err := q.mem.Write64(q.base+cmdqOffEpoch, epoch); err != nil {
			return err
		}
	}
	return nil
}
