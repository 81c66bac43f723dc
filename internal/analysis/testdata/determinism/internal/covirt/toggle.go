// Package covirt exercises the package-level atomic rule in a sim package.
package covirt

import "sync/atomic"

var coalesceOff atomic.Bool // want: package-level atomic switch

var (
	qosDefault atomic.Value           // want: package-level atomic switch
	counters   [2]atomic.Uint64       // want: array of atomics
	limit      = 8                    // ok: not atomic
	ptr        *atomic.Pointer[int32] // want: pointer to an atomic
)

// Controller holds its atomics as fields: per-instance state is fine.
type Controller struct {
	events atomic.Uint64
}

func (c *Controller) count() uint64 {
	var local atomic.Uint64 // ok: function-local
	local.Add(c.events.Load())
	return local.Load() + uint64(limit)
}
