package covirt

import "sync/atomic"

var testHook atomic.Bool // ok: _test.go files are exempt
