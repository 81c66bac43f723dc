package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// allocBytes returns the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFleetAllocationBudget pins what a 64-node fleet allocates per node
// built, per member placed and per node upgraded. Memory pages, TLB
// classes, capability-table growth and placement sweeps are paid for on
// real use only, so each figure is a small fraction of the node's
// simulated footprint.
func TestFleetAllocationBudget(t *testing.T) {
	const nodes = 64
	var c *Cluster
	newB := allocBytes(func() {
		var err error
		if c, err = New(Options{Nodes: nodes, Seed: 1, Shards: nodes}); err != nil {
			t.Fatal(err)
		}
	})
	t.Cleanup(c.Close)
	members := 0
	placeB := allocBytes(func() {
		for i := 0; i < nodes/2; i++ {
			app := App{Name: fmt.Sprintf("app%d", i), Members: []Member{
				{Name: "a", Cores: 1, MemBytes: 32 << 20},
				{Name: "b", Cores: 1, MemBytes: 32 << 20},
			}}
			if _, err := c.Place(app); err != nil {
				t.Fatal(err)
			}
			members += len(app.Members)
		}
	})
	upgradeB := allocBytes(func() {
		for n := 0; n < nodes; n++ {
			if _, err := c.UpgradeNode(n); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, b := range []struct {
		what  string
		bytes uint64
		per   int
		limit uint64
		unit  string
	}{
		{"New", newB, nodes, 12 << 10, "node"},
		{"Place", placeB, members, 32 << 10, "member"},
		{"UpgradeNode", upgradeB, nodes, 24 << 10, "node"},
	} {
		got := b.bytes / uint64(b.per)
		t.Logf("%s: %d B/%s", b.what, got, b.unit)
		if got > b.limit {
			t.Errorf("%s allocates %d B/%s, budget %d", b.what, got, b.unit, b.limit)
		}
	}
}
