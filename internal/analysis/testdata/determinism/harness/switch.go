package harness

import "sync/atomic"

var verbose atomic.Bool // ok: not a sim package
