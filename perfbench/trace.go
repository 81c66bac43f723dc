package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's start, the span that caused it (0 = none), and the pass it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times calls into the program's public functions. Every call is
// timed (set-up time needs that in every run); spans are kept only while
// the tracer is on. Spans are kept in memory and written out at the end.
// Calls may come from an operation's goroutine, so the span log is locked.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPass turns span recording on or off for the given pass.
func (t *tracer) setPass(pass int, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass, t.on = pass, on
}

// timed runs fn inside a span named name whose parent is parent, and
// returns the call's duration. fn receives the span's id (0 when spans are
// off) to parent its own calls.
func (t *tracer) timed(parent int, name string, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := t.open(parent, name, start)
	err := fn(id)
	end := time.Now()
	if id != 0 {
		t.mu.Lock()
		t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return end.Sub(start), err
}

func (t *tracer) open(parent int, name string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name,
		Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

// durations returns, per pass, the summed duration of every finished span
// named name, and every single duration across passes.
func (t *tracer) durations(name string) (perPass map[int]float64, calls []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perPass = make(map[int]float64)
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		perPass[s.Pass] += d
		calls = append(calls, d)
	}
	return perPass, calls
}

// write stores the spans as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostCPULayers are the host_cpu.<layer> shares a CPU profile is split
// into: the repository's modules by name, the Go runtime, and "other"
// (the rest of the standard library, the remaining modules and this
// benchmark). The shares sum to 100%.
var hostCPULayers = []string{"testbed", "workloads", "kitten", "hw", "vmx", "covirt",
	"pisces", "hobbes", "cluster", "runtime", "other"}

// layerOf maps a profiled function's full name to its host_cpu layer by
// the function's package.
func layerOf(fn string) string {
	pkg := fn
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "covirt/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, l := range hostCPULayers {
			if l == mod {
				return l
			}
		}
	}
	return "other"
}

// leafSamples decodes a gzip-compressed pprof CPU profile and returns its
// sample counts keyed by the leaf frame's function name (the innermost
// inlined function at the sampled location).
func leafSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> leaf function id
		sampleLoc []uint64              // leaf location id per sample
		sampleN   []int64               // sample count per sample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					for _, x := range pbRepeated(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			sampleLoc = append(sampleLoc, locs[0])
			sampleN = append(sampleN, vals[0])
		case 4: // Location
			var id, leaf uint64
			seenLine := false
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLeaf[id] = leaf
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for i, loc := range sampleLoc {
		name := "?"
		if idx, ok := funcName[locLeaf[loc]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		out[name] += sampleN[i]
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value (wire types 0, 1, 5) or its bytes
// (wire type 2).
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one element of a repeated varint field, which arrives
// either as a single varint or packed into a byte string.
func pbRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// pbVarint decodes a varint, returning its length (0 if malformed).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
