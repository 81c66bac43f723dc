package pisces

import (
	"bytes"
	"encoding/binary"
	"testing"

	"covirt/internal/hw"
)

// FuzzDecodeBootParams feeds arbitrary raw parameter pages to the decoder
// the host runs on enclave memory. It must never panic; a rejected page
// must return an error; an accepted page must respect the slot limits and
// re-encode to exactly the bytes it was decoded from. The seed corpus
// under testdata/fuzz/FuzzDecodeBootParams runs in every plain go test.
func FuzzDecodeBootParams(f *testing.F) {
	f.Add(validBootPage(f))
	f.Fuzz(func(t *testing.T, page []byte) {
		raw := make([]byte, bootParamsBytes)
		copy(raw, page)
		pm := hw.NewPhysMem()
		if _, err := pm.AddRegion(0, 2*hw.PageSize4K, 0, "bp"); err != nil {
			t.Fatal(err)
		}
		io := NativeMemIO{Mem: pm}
		if err := io.WriteBytes(0, raw); err != nil {
			t.Fatal(err)
		}
		bp, err := DecodeBootParams(io, 0)
		if err != nil {
			if bp != nil {
				t.Fatalf("rejected page returned params %+v", bp)
			}
			return
		}
		if len(bp.Cores) > MaxBootCores {
			t.Fatalf("accepted %d cores, limit %d", len(bp.Cores), MaxBootCores)
		}
		if len(bp.Mem) != len(bp.MemCaps) || len(bp.Mem) > MaxBootExtents {
			t.Fatalf("accepted %d extents with %d caps, limit %d", len(bp.Mem), len(bp.MemCaps), MaxBootExtents)
		}
		if err := EncodeBootParams(io, hw.PageSize4K, bp); err != nil {
			t.Fatalf("accepted params do not re-encode: %v", err)
		}
		again := make([]byte, bootParamsBytes)
		if err := io.ReadBytes(hw.PageSize4K, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("re-encoded page differs from the accepted one")
		}
	})
}

// validBootPage returns the encoding of a typical three-core, two-extent
// block.
func validBootPage(tb testing.TB) []byte {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, hw.PageSize4K, 0, "bp"); err != nil {
		tb.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	bp := &BootParams{
		EnclaveID: 7, Cores: []int{3, 4, 9},
		Mem:        []hw.Extent{{Start: 0x200000, Size: 1 << 24}, {Start: 1 << 38, Size: 1 << 24, Node: 1}},
		CtlReqRing: 0x201000, LcRespRing: 0x204000, Heartbeat: 0x207000,
	}
	if err := EncodeBootParams(io, 0, bp); err != nil {
		tb.Fatal(err)
	}
	page := make([]byte, bootParamsBytes)
	if err := io.ReadBytes(0, page); err != nil {
		tb.Fatal(err)
	}
	return page
}

// A core or extent count of 2^63 or more used to convert to a negative
// int, pass the limit check and decode as zero cores or zero extents.
func TestDecodeBootParamsRejectsHugeCounts(t *testing.T) {
	const coreCountOff, extCountOff = 16, 24 + MaxBootCores*8
	for _, tc := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"cores=2^63", coreCountOff, 1 << 63},
		{"cores=2^64-1", coreCountOff, ^uint64(0)},
		{"cores=17", coreCountOff, MaxBootCores + 1},
		{"extents=2^63", extCountOff, 1 << 63},
		{"extents=2^64-1", extCountOff, ^uint64(0)},
		{"extents=17", extCountOff, MaxBootExtents + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			page := validBootPage(t)
			binary.LittleEndian.PutUint64(page[tc.off:], tc.v)
			pm := hw.NewPhysMem()
			if _, err := pm.AddRegion(0, hw.PageSize4K, 0, "bp"); err != nil {
				t.Fatal(err)
			}
			io := NativeMemIO{Mem: pm}
			if err := io.WriteBytes(0, page); err != nil {
				t.Fatal(err)
			}
			if bp, err := DecodeBootParams(io, 0); err == nil {
				t.Errorf("count %#x accepted: %d cores, %d extents", tc.v, len(bp.Cores), len(bp.Mem))
			}
		})
	}
}
