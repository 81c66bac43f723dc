package harness

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"covirt/internal/workloads"
)

// TestJobSeedCoordinates pins the seed contract: a job's seed is a pure
// function of its (experiment, config, layout, rep) coordinates — never of
// enumeration position, worker count, or ambient state.
func TestJobSeedCoordinates(t *testing.T) {
	j := &Job{Experiment: "fig7", Config: CfgCovirtMem, Layout: EightCore, Rep: 2}
	if j.Seed() != j.Seed() {
		t.Fatal("seed is not stable across calls")
	}
	seen := map[uint64]string{}
	for _, cfg := range StandardConfigs {
		for rep := 0; rep < 3; rep++ {
			jb := &Job{Experiment: "fig7", Config: cfg, Layout: EightCore, Rep: rep}
			key := fmt.Sprintf("%s/%d", cfg.Name, rep)
			if prev, dup := seen[jb.Seed()]; dup {
				t.Fatalf("seed collision between %s and %s", prev, key)
			}
			seen[jb.Seed()] = key
		}
	}
}

// TestEngineContinuesPastFailures checks that a failing job neither stops
// the remaining jobs nor perturbs their results, and that FirstErr reports
// the first failure in enumeration order.
func TestEngineContinuesPastFailures(t *testing.T) {
	boom := errors.New("boom")
	mkJob := func(i int, fail bool) *Job {
		return &Job{
			Experiment: "t", Config: CfgNative, Layout: SingleCore, Rep: i,
			Run: func(j *Job) (*workloads.Result, error) {
				if fail {
					return nil, boom
				}
				return &workloads.Result{Name: "ok", Cycles: uint64(j.Rep)}, nil
			},
		}
	}
	jobs := []*Job{mkJob(0, false), mkJob(1, true), mkJob(2, false), mkJob(3, true)}
	results := Engine{Workers: 2}.Run(jobs)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Res.Cycles != uint64(i) {
			t.Fatalf("job %d: err=%v res=%+v", i, results[i].Err, results[i].Res)
		}
	}
	err := FirstErr(results)
	if !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v, want wrapped boom", err)
	}
	// Enumeration order: the rep-1 failure, not the rep-3 one.
	if want := "t: native/1c/1n rep 2"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("FirstErr = %q, want mention of %q", err, want)
	}
}

// golden determinism: a full experiment's rendered output must be
// byte-identical whether the engine runs jobs serially or on 8 workers.

func TestFig5aOutputDeterministic(t *testing.T) {
	reps := 2
	if testing.Short() {
		reps = 1 // the whole matrix at one rep still covers every cell
	}
	run := func(parallel int) string {
		var buf bytes.Buffer
		if err := RunFig5a(Options{Reps: reps, Parallel: parallel}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if wide := run(8); wide != serial {
		t.Fatalf("fig5a output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s", serial, wide)
	}
}

func TestFig7OutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full HPCG scaling passes; dominates the race suite")
	}
	// The fig7 path (runScaling matrix) with a test-sized HPCG so two full
	// passes stay fast. Single-core cells only: within one simulated
	// machine, concurrent ranks race on ledger-allocation order, which can
	// shift multi-rank cycle counts by a few cycles when the Go scheduler
	// is perturbed (e.g. under -race). That jitter predates the engine and
	// exists at any worker count; the engine's own contract — coordinate
	// seeds, enumeration-order aggregation — is what this test pins.
	mk := func(Options) workloads.Runner {
		return &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 12}
	}
	run := func(parallel int) string {
		var buf bytes.Buffer
		if err := runScaling("fig7", Options{Reps: 2, Parallel: parallel}, &buf, []Layout{SingleCore}, mk); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if wide := run(8); wide != serial {
		t.Fatalf("fig7 output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s", serial, wide)
	}
}

// TestEngineMatrixOrderIndependent drives the full fig7-shaped matrix
// (all layouts x all configs x reps) through 1 and 8 workers with a
// seed-derived synthetic measurement, proving result order and values are
// independent of worker count even when job durations force heavy
// completion-order inversion.
func TestEngineMatrixOrderIndependent(t *testing.T) {
	reps := 3
	build := func() []*Job {
		var jobs []*Job
		for _, layout := range Layouts {
			for _, cfg := range StandardConfigs {
				for rep := 0; rep < reps; rep++ {
					jobs = append(jobs, &Job{
						Experiment: "matrix", Config: cfg, Layout: layout, Rep: rep,
						Run: func(j *Job) (*workloads.Result, error) {
							return &workloads.Result{Name: "synthetic", Cycles: j.Seed()}, nil
						},
					})
				}
			}
		}
		return jobs
	}
	render := func(workers int) string {
		results := Engine{Workers: workers}.Run(build())
		var buf bytes.Buffer
		for _, r := range results {
			fmt.Fprintf(&buf, "%s/%s/%d: %d\n", r.Job.Config.Name, r.Job.Layout.Name, r.Job.Rep, r.Res.Cycles)
		}
		return buf.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Fatalf("matrix results differ between 1 and 8 workers:\n%s\nvs\n%s", a, b)
	}
}
