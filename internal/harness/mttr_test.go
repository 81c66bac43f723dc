package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestMTTRRecoversAndQuarantines checks the campaign end to end: restart
// policies recover both fault classes (the post-recovery payload inside
// each job is the proof), and the zero budget quarantines instead.
func TestMTTRRecoversAndQuarantines(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMTTR(Options{Reps: 1, Parallel: 1}, &buf); err != nil {
		t.Fatalf("mttr: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"restart-fast", "restart-backoff", "no-restart", "crash", "hang"} {
		if !strings.Contains(out, want) {
			t.Errorf("mttr output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "restart-") && !strings.Contains(line, "recovered"):
			t.Errorf("restart policy did not recover: %s", line)
		case strings.HasPrefix(line, "no-restart") && !strings.Contains(line, "quarantined"):
			t.Errorf("zero budget did not quarantine: %s", line)
		}
	}
}

// TestMTTRDeterministicAcrossParallelism is the acceptance check for the
// supervision subsystem: the full fault-injection campaign — heartbeats,
// watchdog scans, jittered restarts, quarantine — produces byte-identical
// output whether jobs run serially or eight at a time.
func TestMTTRDeterministicAcrossParallelism(t *testing.T) {
	reps := 2
	if testing.Short() {
		reps = 1
	}
	run := func(parallel int) string {
		var buf bytes.Buffer
		if err := RunMTTR(Options{Reps: reps, Parallel: parallel}, &buf); err != nil {
			t.Fatalf("mttr parallel=%d: %v", parallel, err)
		}
		return buf.String()
	}
	serial := run(1)
	wide := run(8)
	if serial != wide {
		t.Errorf("mttr output differs between -parallel 1 and 8:\n--- serial ---\n%s\n--- parallel 8 ---\n%s", serial, wide)
	}
}
