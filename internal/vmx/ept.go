package vmx

import (
	"fmt"
	"sync"
	"sync/atomic"

	"covirt/internal/hw"
)

// Perms are EPT access permissions.
type Perms uint8

// Permission bits.
const (
	PermRead Perms = 1 << iota
	PermWrite
	PermExec
	// PermAll grants read, write and execute — Covirt maps all enclave
	// memory with full permissions; violations mean "outside the map".
	PermAll = PermRead | PermWrite | PermExec
)

// page-table geometry (x86-64 4-level)
const (
	eptLevels   = 4
	eptIdxBits  = 9
	eptIdxMask  = (1 << eptIdxBits) - 1
	eptMaxLevel = eptLevels - 1 // index of the root level (L4 == 3)
)

// levelShift returns the address shift of the given level (0 == L1/4K).
func levelShift(level int) uint { return 12 + uint(level)*eptIdxBits }

// levelPageSize returns the leaf page size at a level (L1→4K, L2→2M, L3→1G).
func levelPageSize(level int) uint64 { return 1 << levelShift(level) }

// eptEntry is one slot of an EPT table node: either a pointer to the next
// level or a leaf mapping. Entries are immutable once published — mutation
// replaces the slot's pointer — so lock-free walkers always observe a fully
// constructed entry.
type eptEntry struct {
	next  *eptNode
	leaf  bool
	perms Perms
}

// eptNode is one 512-entry EPT table. Slots publish immutable entries
// atomically (nil = not present): readers walk without taking any lock,
// writers serialize under EPT.mu and store fully built subtrees.
type eptNode struct {
	entries [1 << eptIdxBits]atomic.Pointer[eptEntry]
}

// EPTStats summarizes an EPT's current mappings.
type EPTStats struct {
	Mapped4K uint64 // number of 4K leaf mappings
	Mapped2M uint64
	Mapped1G uint64
	Bytes    uint64 // total mapped bytes
}

// Pages returns the total number of leaf mappings.
func (s EPTStats) Pages() uint64 { return s.Mapped4K + s.Mapped2M + s.Mapped1G }

// EPT is a simulated nested page table. Mappings are identity (guest
// physical == host physical), matching Covirt's zero-abstraction design; the
// structure exists to *bound* what the guest may touch, not to remap it.
//
// EPT is safe for concurrent use: the controller module mutates it while
// guest CPUs walk it. The walk side is lock-free (atomic entry publication);
// mutations are serialized under mu and bump the generation counter *after*
// the edit, so a translation cached under generation g is guaranteed to
// reflect a fully applied layout once Gen() returns g. TLB shootdown is the
// hypervisor's job (see covirt's command queue).
type EPT struct {
	mu    sync.Mutex
	root  *eptNode
	stats EPTStats
	gen   atomic.Uint64
	// maxPage caps leaf mapping sizes (0 = coalesce freely up to 1G);
	// used by the large-page ablation.
	maxPage uint64
	// walkCount counts completed full walks (diagnostics). Translation-
	// cache hits intentionally do not count: the cache exists to absorb
	// walks, and the counter measures the walks that actually happened.
	walkCount atomic.Uint64
	// full4K holds, per permission set, the entry linking this EPT's shared
	// full 4K table: an immutable L1 table whose 512 slots all point at
	// leafEntry(p). A 4K-capped map links it into every whole 2M slot it
	// covers; unmaps copy it before clearing any slot (see unmapNode). Built
	// on first use under mu.
	full4K [PermAll + 1]*eptEntry
}

// NewEPT returns an empty nested page table (nothing mapped: every access
// violates).
func NewEPT() *EPT { return &EPT{root: &eptNode{}} }

// SetMaxPageSize caps the leaf page size used by MapRange (pass
// hw.PageSize4K to disable coalescing entirely). Must be called before any
// mapping exists.
func (e *EPT) SetMaxPageSize(ps uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maxPage = ps
}

// Gen returns the mutation generation; it increments on every Map/Unmap.
func (e *EPT) Gen() uint64 { return e.gen.Load() }

// Stats returns current mapping statistics.
func (e *EPT) Stats() EPTStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// idx extracts the table index of gpa at level.
func idx(gpa uint64, level int) int {
	return int((gpa >> levelShift(level)) & eptIdxMask)
}

// leafEntries holds the one immutable leaf entry per permission set. Leaf
// entries carry no per-page state, so every leaf slot with the same
// permissions points at the same entry: mapping allocates only table nodes.
var leafEntries = func() (t [PermAll + 1]eptEntry) {
	for p := range t {
		t[p] = eptEntry{leaf: true, perms: Perms(p)}
	}
	return t
}()

// leafEntry returns the shared leaf entry for perms (which must lie within
// PermAll).
func leafEntry(p Perms) *eptEntry { return &leafEntries[p] }

// newFullTable returns a fresh table whose 512 slots all hold leafEntry(p).
func newFullTable(p Perms) *eptNode {
	n := &eptNode{}
	shared := leafEntry(p)
	for i := range n.entries {
		n.entries[i].Store(shared)
	}
	return n
}

// isFull4K reports whether ent links a shared full 4K table, which must
// never be written. Caller holds e.mu.
func (e *EPT) isFull4K(ent *eptEntry) bool {
	return !ent.leaf && e.full4K[ent.perms] == ent
}

// checkRange validates a map/unmap range: 4K-aligned, and not wrapping past
// the top of the address space.
func checkRange(op string, gpa, size uint64) error {
	if gpa%hw.PageSize4K != 0 || size%hw.PageSize4K != 0 {
		return fmt.Errorf("vmx: unaligned %s [%#x,+%#x)", op, gpa, size)
	}
	if size != 0 && gpa+size <= gpa {
		return fmt.Errorf("vmx: %s [%#x,+%#x) wraps the address space", op, gpa, size)
	}
	return nil
}

// MapRange identity-maps [gpa, gpa+size) with the given permissions,
// coalescing into 2M and 1G leaf mappings wherever alignment and length
// allow — the optimization the paper calls out ("contiguous memory pages
// are coalesced into large (2MB) and giant (1GB) EPT page mappings").
// gpa and size must be 4K-aligned, the range must not wrap, and perms must
// lie within PermAll. Mapping over an existing mapping is an error (the
// controller tracks ownership; double-maps indicate a bug).
func (e *EPT) MapRange(gpa, size uint64, perms Perms) error {
	if err := checkRange("map", gpa, size); err != nil {
		return err
	}
	if perms&^PermAll != 0 {
		return fmt.Errorf("vmx: map [%#x,+%#x) with invalid perms %#x", gpa, size, perms)
	}
	if size == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	end := gpa + size
	for cur := gpa; cur < end; {
		next, err := e.mapRun(cur, end, perms)
		if err != nil {
			return err
		}
		cur = next
	}
	e.gen.Add(1)
	return nil
}

// bestPageSize picks the largest page size usable at cur given remaining
// length.
func bestPageSize(cur, remaining uint64) uint64 {
	if cur%hw.PageSize1G == 0 && remaining >= hw.PageSize1G {
		return hw.PageSize1G
	}
	if cur%hw.PageSize2M == 0 && remaining >= hw.PageSize2M {
		return hw.PageSize2M
	}
	return hw.PageSize4K
}

// mapRun installs a run of same-size leaves starting at cur: it walks to
// the leaf-level table once, then fills consecutive slots until the range
// or the table ends. The page size cannot change earlier: the next size
// up needs an alignment that only a table boundary provides, so within one
// table the size only drops once less than a page remains. It returns
// where the run stopped. Table nodes are created empty and linked before
// their slots fill, so walkers only ever see absent or complete leaves.
// A 4K run that reaches an empty, 2M-aligned L2 slot with at least 2M left
// (only a 4K cap keeps such a run at 4K) links the shared full 4K table
// instead, via linkFull4K. A run that reaches a shared table fails on its
// first slot, so the shared table is never written. Caller holds e.mu.
func (e *EPT) mapRun(cur, end uint64, perms Perms) (uint64, error) {
	pageSize := bestPageSize(cur, end-cur)
	if e.maxPage > 0 && pageSize > e.maxPage {
		pageSize = e.maxPage
	}
	leafLevel := 0
	switch pageSize {
	case hw.PageSize1G:
		leafLevel = 2
	case hw.PageSize2M:
		leafLevel = 1
	}
	n := e.root
	for level := eptMaxLevel; level > leafLevel; level-- {
		slot := &n.entries[idx(cur, level)]
		ent := slot.Load()
		if ent != nil && ent.leaf {
			return cur, fmt.Errorf("vmx: map %#x/%d overlaps existing %d-byte leaf", cur, pageSize, levelPageSize(level))
		}
		if ent == nil {
			if level == 1 && pageSize == hw.PageSize4K && cur%hw.PageSize2M == 0 && end-cur >= hw.PageSize2M {
				return e.linkFull4K(n, cur, end, perms), nil
			}
			ent = &eptEntry{next: &eptNode{}}
			slot.Store(ent)
		}
		n = ent.next
	}
	leaf := leafEntry(perms)
	slots := n.entries[idx(cur, leafLevel):]
	run := min(uint64(len(slots)), (end-cur)/pageSize)
	for i := range run {
		if slots[i].Load() != nil {
			e.accountMap(pageSize, i)
			return cur + i*pageSize, fmt.Errorf("vmx: map %#x/%d overlaps existing mapping", cur+i*pageSize, pageSize)
		}
		slots[i].Store(leaf)
	}
	e.accountMap(pageSize, run)
	return cur + run*pageSize, nil
}

// linkFull4K fills consecutive empty slots of the L2 table n, starting at
// cur's slot (which is empty), with the shared full 4K table entry until
// less than 2M remains, the table ends or a slot is taken. It returns where
// it stopped; mapRun maps the rest. Each slot counts as 512 4K leaves.
// The shared entry is built on first use and carries perms, so isFull4K
// can find it. Caller holds e.mu.
func (e *EPT) linkFull4K(n *eptNode, cur, end uint64, perms Perms) uint64 {
	shared := e.full4K[perms]
	if shared == nil {
		shared = &eptEntry{next: newFullTable(perms), perms: perms}
		e.full4K[perms] = shared
	}
	slots := n.entries[idx(cur, 1):]
	run := min(uint64(len(slots)), (end-cur)/hw.PageSize2M)
	for i := range run {
		if slots[i].Load() != nil {
			run = i
			break
		}
		slots[i].Store(shared)
	}
	e.accountMap(hw.PageSize4K, run<<eptIdxBits)
	return cur + run*hw.PageSize2M
}

// UnmapRange removes all mappings overlapping [gpa, gpa+size), splitting
// large leaves when the range covers them only partially. gpa and size must
// be 4K-aligned and the range must not wrap. Unmapping never-mapped space
// is a no-op, mirroring INVEPT semantics (the controller may conservatively
// unmap supersets).
func (e *EPT) UnmapRange(gpa, size uint64) error {
	if err := checkRange("unmap", gpa, size); err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unmapNode(e.root, eptMaxLevel, 0, gpa, gpa+size)
	e.gen.Add(1)
	return nil
}

// unmapNode walks node n (covering [base, base+span) at level) removing
// leaves overlapping [lo, hi). A shared full 4K table is dropped whole when
// covered, and otherwise replaced by a private copy before any slot is
// cleared. Caller holds e.mu.
func (e *EPT) unmapNode(n *eptNode, level int, base, lo, hi uint64) {
	span := levelPageSize(level)
	for i := 0; i < 1<<eptIdxBits; i++ {
		entBase := base + uint64(i)*span
		if entBase >= hi || entBase+span <= lo {
			continue
		}
		covered := entBase >= lo && entBase+span <= hi
		slot := &n.entries[i]
		ent := slot.Load()
		switch {
		case ent == nil:
		case ent.leaf && covered:
			e.accountUnmap(span, 1)
			slot.Store(nil)
		case ent.leaf:
			// Partially covered large leaf: split one level down and
			// recurse. 4K leaves are always fully covered (alignment).
			e.accountUnmap(span, 1)
			e.accountMap(levelPageSize(level-1), 1<<eptIdxBits)
			e.unmapNode(e.splitLeaf(slot, ent.perms), level-1, entBase, lo, hi)
		case e.isFull4K(ent) && covered:
			e.accountUnmap(hw.PageSize4K, 1<<eptIdxBits)
			slot.Store(nil)
		case e.isFull4K(ent):
			// Copy on write: the same 512 leaves, now in a private table.
			e.unmapNode(e.splitLeaf(slot, ent.perms), level-1, entBase, lo, hi)
		default:
			e.unmapNode(ent.next, level-1, entBase, lo, hi)
			if nodeEmpty(ent.next) {
				slot.Store(nil)
			}
		}
	}
}

// splitLeaf publishes in slot a fresh table of 512 next-size-down leaves
// with perms p, replacing a large leaf or a shared full 4K table, and
// returns it. The table is fully built before it is published, so
// concurrent walkers see either the old entry or the complete copy, never
// a partial table. The caller does the accounting. Caller holds e.mu.
func (e *EPT) splitLeaf(slot *atomic.Pointer[eptEntry], p Perms) *eptNode {
	child := newFullTable(p)
	slot.Store(&eptEntry{next: child})
	return child
}

// accountMap records n new leaves of the given span. Caller holds e.mu.
func (e *EPT) accountMap(span, n uint64) {
	switch span {
	case hw.PageSize1G:
		e.stats.Mapped1G += n
	case hw.PageSize2M:
		e.stats.Mapped2M += n
	default:
		e.stats.Mapped4K += n
	}
	e.stats.Bytes += n * span
}

// accountUnmap records n dropped leaves of the given span. Caller holds
// e.mu.
func (e *EPT) accountUnmap(span, n uint64) {
	switch span {
	case hw.PageSize1G:
		e.stats.Mapped1G -= n
	case hw.PageSize2M:
		e.stats.Mapped2M -= n
	default:
		e.stats.Mapped4K -= n
	}
	e.stats.Bytes -= n * span
}

// nodeEmpty reports whether a node has no live entries.
func nodeEmpty(n *eptNode) bool {
	for i := range n.entries {
		if n.entries[i].Load() != nil {
			return false
		}
	}
	return true
}

// WalkResult reports the outcome of an EPT walk.
type WalkResult struct {
	PageSize uint64 // leaf page size backing the translation
	Levels   int    // table levels touched during the walk
	Perms    Perms  // leaf permissions (valid on success)
}

// Walk translates gpa, returning the leaf page size and walk depth. A miss
// or permission failure returns an hw.Fault of kind FaultEPTViolation.
// Identity mapping means the output address always equals gpa on success.
// Walk is lock-free: it reads atomically published immutable entries, so
// concurrent guest CPUs never contend with each other or block behind a
// controller mutation.
func (e *EPT) Walk(gpa uint64, write bool) (WalkResult, error) {
	e.walkCount.Add(1)
	return e.walk(gpa, write)
}

// walk is Walk without the walk counter.
func (e *EPT) walk(gpa uint64, write bool) (WalkResult, error) {
	n := e.root
	levels := 0
	for level := eptMaxLevel; level >= 0; level-- {
		levels++
		ent := n.entries[idx(gpa, level)].Load()
		if ent == nil {
			return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
		}
		if ent.leaf {
			need := PermRead
			if write {
				need = PermWrite
			}
			if ent.perms&need == 0 {
				return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
			}
			return WalkResult{PageSize: levelPageSize(level), Levels: levels, Perms: ent.perms}, nil
		}
		n = ent.next
	}
	// Unreachable: level 0 entries are always leaves or empty.
	return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
}

// Mapped reports whether gpa is currently readable, without touching
// counters (controller-side queries).
func (e *EPT) Mapped(gpa uint64) bool {
	_, err := e.walk(gpa, false)
	return err == nil
}

// WalkCount returns the number of walks performed (diagnostics).
func (e *EPT) WalkCount() uint64 { return e.walkCount.Load() }
