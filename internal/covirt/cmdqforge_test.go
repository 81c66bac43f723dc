package covirt_test

import (
	"strings"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
)

// forgeCmdQWord has a guest task overwrite one header word of its own
// command queue (the header lives in the enclave's mapped reserved area),
// then drives one AddMemory/RemoveMemory pair, whose shootdown makes the
// hypervisor drain the forged ring. The host must not panic or hang: the
// remove returns, the forging enclave is reported crashed with a
// command-queue reason, and a neighbour enclave keeps working.
func forgeCmdQWord(t *testing.T, off uint64) {
	t.Helper()
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "forger", 1, []int{0}, 128<<20)
	nb, nk := r.boot(t, "neighbour", 1, []int{0}, 128<<20)

	task, _ := k.Spawn("forge", 0, func(e *kitten.Env) error {
		return e.RawWrite64(enc.Base()+pisces.OffCovirtCmdQ+off, 10000)
	})
	if err := task.Wait(); err != nil {
		t.Fatalf("forging write: %v", err)
	}
	ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	removed := make(chan error, 1)
	go func() { removed <- r.h.Pisces.RemoveMemory(enc, ext) }()
	select {
	case <-removed:
	case <-time.After(10 * time.Second):
		t.Fatal("RemoveMemory hung on a forged command-queue index")
	}
	select {
	case <-enc.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("forging enclave never terminated")
	}
	if enc.State() != pisces.StateCrashed {
		t.Fatalf("forging enclave state = %v, want crashed", enc.State())
	}
	if reason := enc.CrashReason(); !strings.Contains(reason, "command queue corrupted") {
		t.Errorf("crash reason = %q, want a command-queue corruption report", reason)
	}

	next, err := r.h.Pisces.AddMemory(nb, 0, 2<<20)
	if err != nil {
		t.Fatalf("neighbour grant: %v", err)
	}
	work, _ := nk.Spawn("work", 0, func(e *kitten.Env) error {
		e.Write64(next.Start, 7)
		if v := e.Read64(next.Start); v != 7 {
			t.Errorf("neighbour read %d, want 7", v)
		}
		e.Access(next.Start+4096, false, hw.AccessHot)
		return nil
	})
	if err := work.Wait(); err != nil {
		t.Fatalf("neighbour task: %v", err)
	}
	if err := r.h.Pisces.RemoveMemory(nb, next); err != nil {
		t.Fatalf("neighbour revoke: %v", err)
	}
	if nb.State() == pisces.StateCrashed {
		t.Errorf("neighbour crashed: %s", nb.CrashReason())
	}
}

// TestForgedCmdQHeadContained: a forged head made the NMI drain index past
// its snapshot buffer and panic the host.
func TestForgedCmdQHeadContained(t *testing.T) { forgeCmdQWord(t, 0) }

// TestForgedCmdQTailContained: a forged tail made the drain see an empty
// ring forever, so the shootdown's epoch wait never returned.
func TestForgedCmdQTailContained(t *testing.T) { forgeCmdQWord(t, 8) }
