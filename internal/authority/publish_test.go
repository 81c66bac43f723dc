package authority

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Readers keep taking snapshots and verifying keys while a writer mints
// and delegates thousands of entries into the shared backing array. Every
// key minted before the readers started stays valid, every entry a
// snapshot holds verifies against its own key, and a reader's snapshot
// length only grows. Run under -race this also proves that appending into
// spare capacity never writes memory a published snapshot can read.
func TestPublishSharedBackingConcurrentReaders(t *testing.T) {
	tb := NewTable()
	root := tb.Mint(0, KindMemory, RightsAll, MemScope(0, 1<<40), "root")
	var early []Cap
	for i := 0; i < 16; i++ {
		early = append(early, tb.Mint(i+1, KindIPI, RightSend, IPIScope(i, 0xF0), "early"))
	}
	writes := 4000
	if testing.Short() {
		writes = 1000
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for !done.Load() {
				es := tb.snapshot()
				if len(es) < last {
					errs <- "snapshot length shrank"
					return
				}
				last = len(es)
				for _, c := range early {
					if !tb.Verify(c, c.Holder, KindIPI, RightSend) {
						errs <- "early key stopped verifying"
						return
					}
				}
				for i, e := range es {
					if e.id != uint64(i+1) || !tb.Verify(capOf(e), e.holder, e.kind, e.rights) {
						errs <- "snapshot entry does not verify"
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if i%2 == 0 {
			tb.Mint(100+i, KindIO, RightMap, IOScope(0, 0xFF), "io")
			continue
		}
		if _, err := tb.Delegate(root, 100+i, RightRead, MemScope(uint64(i)<<12, 1<<12), "child"); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, want := len(tb.snapshot()), 1+len(early)+writes; got != want {
		t.Errorf("table holds %d entries, want %d", got, want)
	}
}

// Publishing is amortised O(1): minting n entries allocates O(n) bytes,
// not the O(n²) of copying the whole entry slice on every publish.
func TestPublishAllocationIsLinear(t *testing.T) {
	const n = 4096
	tb := NewTable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tb.Mint(i, KindIO, RightMap, IOScope(0, 1), "x")
	}
	runtime.ReadMemStats(&after)
	// An entry plus its published slice header is under 256 B; slice
	// growth adds about 16 B per entry amortised. Copying on every publish
	// costs about 8·n/2 = 16 KiB per entry at this size.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 512 {
		t.Errorf("Mint allocates %d B/entry over %d entries, want ≤ 512", per, n)
	}
}
