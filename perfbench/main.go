// Command perfbench is the repository's benchmark. It runs one workload
// as a closed loop of passes — each pass is the workload's seeded job
// matrix, run one job at a time — for a fixed number of host seconds, checks
// every output, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured in a separate run
// that alternates untraced and traced passes. Run it through run.sh, which
// builds it from source inside the checkout:
//
//	bash perfbench/run.sh --workload hpcg --seed 1 --seconds 20 --trace 0
//
// See README.md for why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(scenarioNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Float64("seconds", 20, "host seconds to keep starting passes for")
	traceFlag := fs.Int("trace", 0, "1 = per-layer run (spans, counters, CPU profile); 0 = end-to-end run")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for span logs, profiles and goroutine dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := scenarioByName(*name)
	if sc == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s, -trace 0|1 and -seconds > 0\n",
			strings.Join(scenarioNames(), ", "))
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d-pid%d", sc.name, *seed, *traceFlag, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{sc: sc, size: fullSizes, seed: *seed, tr: newTracer(), dir: dir}
	res, err := b.runFor(time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.report(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest uint64     // digest of the simulated statistics
	stats  []statLine // every metric's full summary, for the report
	checks []string   // failed output checks and operations
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// statLine is one summarised metric in the human-readable report.
type statLine struct {
	name, unit string
	sum        summary
}

// bench is one benchmark run of one workload.
type bench struct {
	sc    *scenario
	size  sizes
	seed  uint64
	tr    *tracer
	dir   string
	dumps int // goroutine dumps written
}

// pass is the outcome of one pass over the workload's job matrix.
type pass struct {
	index  int
	traced bool
	span   int // the pass's own span (0 when untraced)

	wall, setup time.Duration
	allocBytes  uint64
	attempted   int
	failed      int
	errs        []string // failed operations
	checks      []string // failed output checks

	// counters holds every simulated statistic the pass produced: the
	// per-layer counters under their metric names and per-job results
	// under "<job>/<stat>" keys. All of it is a pure function of the seed,
	// so it feeds the determinism digest.
	counters map[string]float64
	// sim holds the workload's simulated end-to-end results.
	sim       map[string]float64
	simCycles float64 // simulated cycles the pass produced

	goroutinesLeaked int
	heapDeltaMB      float64
	profile          []byte
	cleanup          []func()
}

func (p *pass) add(name string, v float64) { p.counters[name] += v }

func (p *pass) fail(msg string) {
	p.failed++
	p.errs = append(p.errs, msg)
}

func (p *pass) check(ok bool, format string, args ...any) {
	if !ok {
		p.checks = append(p.checks, "check: "+fmt.Sprintf(format, args...))
	}
}

// hostS is the pass's host time excluding set-up.
func (p *pass) hostS() float64 { return (p.wall - p.setup).Seconds() }

// digestInput lists the pass's simulated statistics, one sorted
// "name value" line each, leaving out the volatile ones and the guests'
// clocks at teardown.
func (p *pass) digestInput(volatile []string) []byte {
	volatile = append([]string{teardownTSC}, volatile...)
	keys := make([]string, 0, len(p.counters))
	for k := range p.counters {
		if !slices.ContainsFunc(volatile, func(v string) bool { return strings.HasPrefix(k, v) }) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s %s\n", k, strconv.FormatFloat(p.counters[k], 'g', -1, 64))
	}
	return buf.Bytes()
}

// digest hashes the pass's digest input.
func (p *pass) digest(volatile []string) uint64 {
	h := fnv.New64a()
	h.Write(p.digestInput(volatile))
	return h.Sum64()
}

// runFor runs passes until d has elapsed: one warm-up pass first (caches,
// pools and lazily built tables fill; its outputs are checked but its
// times are not used), then measured passes. A per-layer run alternates
// untraced and traced passes so their difference is the tracing overhead.
func (b *bench) runFor(d time.Duration, perLayer bool) (*result, error) {
	start := time.Now()
	minPasses := 2
	if perLayer {
		minPasses = 3
	}
	var passes []*pass
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		traced := perLayer && i > 0 && i%2 == 0
		p, err := b.runPass(i, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return b.summarise(passes, perLayer)
}

// runPass runs the workload's job matrix once.
func (b *bench) runPass(index int, traced bool) (*pass, error) {
	p := &pass{index: index, traced: traced, counters: map[string]float64{}, sim: map[string]float64{}}
	collect()
	g0 := settledGoroutines()
	h0 := liveHeap()
	a0 := allocatedBytes()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	b.tr.setPass(index, traced)
	wall, _ := b.tr.timed(0, b.sc.name+".pass", func(id int) error {
		p.span = id
		b.sc.run(b, p)
		return nil
	})
	b.tr.setPass(index, false)
	p.wall = wall
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	p.allocBytes = allocatedBytes() - a0

	collect()
	p.goroutinesLeaked = settledGoroutines() - g0
	p.heapDeltaMB = float64(int64(liveHeap())-int64(h0)) / (1 << 20)
	for _, fn := range p.cleanup {
		fn()
	}
	return p, nil
}

// op runs fn as one operation under the workload's deadline, on its own
// goroutine while the driver waits, so one job still runs at a time. An
// operation that returns an error, or has not returned by the deadline,
// counts as failed; an overdue one is abandoned — its goroutines may stay
// blocked for the rest of the process — after a dump of every goroutine is
// saved with the run output.
func (b *bench) op(p *pass, name string, fn func(span int) error) bool {
	p.attempted++
	done := make(chan error, 1)
	parent := p.span
	go func() {
		_, err := b.tr.timed(parent, name, fn)
		done <- err
	}()
	timer := time.NewTimer(b.sc.deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		if err == nil {
			return true
		}
		p.fail(fmt.Sprintf("%s: %v", name, err))
	case <-timer.C:
		path := b.dumpGoroutines(name)
		p.fail(fmt.Sprintf("%s: no result within %v, abandoned; goroutines in %s", name, b.sc.deadline, path))
	}
	return false
}

// call times one call into the program as a span under parent.
func (b *bench) call(parent int, name string, fn func() error) (time.Duration, error) {
	return b.tr.timed(parent, name, func(int) error { return fn() })
}

func (b *bench) dumpGoroutines(op string) string {
	b.dumps++
	path := filepath.Join(b.dir, fmt.Sprintf("hang-%03d.txt", b.dumps))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Sprintf("(not saved: %v)", err)
	}
	defer f.Close()
	fmt.Fprintf(f, "operation %s passed its deadline of %v\n\n", op, b.sc.deadline)
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		return fmt.Sprintf("(not saved: %v)", err)
	}
	return path
}

// settledGoroutines returns the goroutine count once goroutines that are
// still exiting (torn-down guest cores) have gone: the count must hold
// still for a few polls in a row, up to half a second.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, waited := 0, 0; still < 5 && waited < 500; waited++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// collect runs the garbage collector twice, which also empties the
// sync.Pool caches the workloads keep their arenas in, so the live heap
// holds only what something still references.
func collect() {
	runtime.GC()
	runtime.GC()
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// summarise reduces the passes to the run's result. Timing metrics use
// the measured passes in which no operation failed (an abandoned
// operation's time says nothing about the program's speed); outputs are
// checked on every pass, and every pass without failures must reproduce
// the same digest of simulated statistics.
func (b *bench) summarise(passes []*pass, perLayer bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var ref *pass // first pass without failures: its digest is the reference
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.checks = append(append(res.checks, p.checks...), p.errs...)
		if len(p.checks) > 0 {
			res.Correct = false
		}
		if p.failed > 0 {
			continue
		}
		if ref == nil {
			ref = p
		} else if d := p.digest(b.sc.volatile); d != ref.digest(b.sc.volatile) {
			res.Correct = false
			res.checks = append(res.checks, fmt.Sprintf("check: pass %d simulated statistics digest %016x differs from pass %d's %016x (both in %s)",
				p.index, d, ref.index, ref.digest(b.sc.volatile), b.dir))
			if err := writeCounters(b.dir, b.sc.volatile, ref, p); err != nil {
				return nil, err
			}
		}
	}
	if ref != nil {
		res.digest = ref.digest(b.sc.volatile)
	}
	if err := writePasses(filepath.Join(b.dir, "passes.tsv"), passes); err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation ran", b.sc.name)
	}

	var untraced, traced []*pass
	for _, p := range passes[1:] {
		if p.failed > 0 {
			continue
		}
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if len(untraced) == 0 {
		// Every measured pass lost an operation: time what there is
		// rather than report nothing.
		untraced = passes[1:]
	}
	if perLayer && len(traced) == 0 {
		for _, p := range passes[1:] {
			if p.traced {
				traced = append(traced, p)
			}
		}
	}
	emit := func(name, unit string, xs []float64, inResult bool) {
		s := summarize(xs)
		res.stats = append(res.stats, statLine{name: name, unit: unit, sum: s})
		if inResult {
			res.Metrics[name] = metric{Value: s.Median, Unit: unit}
		}
	}
	per := func(ps []*pass, f func(*pass) float64) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return xs
	}

	// End-to-end metrics.
	e2e := !perLayer
	emit("host_s", "s", per(untraced, (*pass).hostS), e2e)
	emit("setup_s", "s", per(untraced, func(p *pass) float64 { return p.setup.Seconds() }), e2e)
	// host_alloc_mb is the least over the passes, not the median: a GC
	// that lands between two jobs empties the workloads' pooled arenas, so
	// host timing only ever adds whole arenas above that level.
	allocs := per(untraced, func(p *pass) float64 { return float64(p.allocBytes) / (1 << 20) })
	emit("host_alloc_mb", "MB", allocs, false)
	if e2e {
		res.Metrics["host_alloc_mb"] = metric{Value: slices.Min(allocs), Unit: "MB"}
	}
	emit("sim_cycles_per_host_s", "cycles/s", per(untraced, func(p *pass) float64 { return p.simCycles / p.hostS() }), e2e)
	for _, m := range b.sc.simMetrics {
		emit(m.name, m.unit, per(untraced, func(p *pass) float64 {
			if m.host {
				return p.sim[m.name] / p.hostS()
			}
			return p.sim[m.name]
		}), false)
	}
	if !perLayer {
		return res, nil
	}

	// Per-layer metrics, from the traced passes.
	for _, m := range perLayerMetrics {
		var xs []float64
		switch {
		case m.span != "" && m.pct == 0:
			perPass, _ := b.tr.durations(m.span)
			xs = per(traced, func(p *pass) float64 { return perPass[p.index] })
		case m.span != "":
			_, calls := b.tr.durations(m.span)
			slices.Sort(calls)
			v := 0.0
			if len(calls) > 0 {
				v = nearestRank(calls, m.pct)
			}
			xs = []float64{v}
		case m.value != nil:
			xs = per(traced, func(p *pass) float64 { return m.value(p.counters) })
		default:
			xs = per(traced, func(p *pass) float64 { return p.counters[m.name] })
		}
		emit(m.name, m.unit, xs, true)
	}
	// Leaks are measured on the untraced passes: a traced pass keeps its
	// spans in memory.
	emit("testbed.goroutines_leaked", "count", per(untraced, func(p *pass) float64 { return float64(p.goroutinesLeaked) }), true)
	emit("testbed.live_heap_mb_delta", "MB", per(untraced, func(p *pass) float64 { return p.heapDeltaMB }), true)

	shares, err := hostCPUShares(traced)
	if err != nil {
		return nil, err
	}
	for _, l := range hostCPULayers {
		emit("host_cpu."+l, "%", []float64{shares[l]}, true)
	}
	un, tr := median(per(untraced, (*pass).hostS)), median(per(traced, (*pass).hostS))
	emit("perfbench.host_s_untraced", "s", []float64{un}, true)
	emit("perfbench.host_s_traced", "s", []float64{tr}, true)
	emit("perfbench.trace_overhead_s", "s", []float64{tr - un}, true)

	if err := b.tr.write(filepath.Join(b.dir, "spans.jsonl.gz")); err != nil {
		return nil, err
	}
	if n := len(traced); n > 0 {
		if err := os.WriteFile(filepath.Join(b.dir, "cpu-last-traced-pass.pprof"), traced[n-1].profile, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writePasses saves one line of host measurements per pass.
func writePasses(path string, passes []*pass) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "pass\ttraced\tattempted\tfailed\twall_s\tsetup_s\thost_s\talloc_mb\tgoroutines_leaked\tlive_heap_mb_delta\n")
	for _, p := range passes {
		fmt.Fprintf(&buf, "%d\t%v\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.3f\t%d\t%.3f\n", p.index, p.traced, p.attempted, p.failed,
			p.wall.Seconds(), p.setup.Seconds(), p.hostS(), float64(p.allocBytes)/(1<<20), p.goroutinesLeaked, p.heapDeltaMB)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeCounters saves the digest input of passes whose digests differ,
// so they can be compared.
func writeCounters(dir string, volatile []string, ps ...*pass) error {
	for _, p := range ps {
		path := filepath.Join(dir, fmt.Sprintf("counters-pass%03d.txt", p.index))
		if err := os.WriteFile(path, p.digestInput(volatile), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hostCPUShares attributes the traced passes' CPU profile samples to the
// host_cpu layers by the leaf frame's package, in percent.
func hostCPUShares(traced []*pass) (map[string]float64, error) {
	counts := map[string]int64{}
	var total int64
	for _, p := range traced {
		leaves, err := leafSamples(p.profile)
		if err != nil {
			return nil, err
		}
		for fn, n := range leaves {
			counts[layerOf(fn)] += n
			total += n
		}
	}
	shares := map[string]float64{}
	for _, l := range hostCPULayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		}
	}
	return shares, nil
}

// nearestRank returns the p-th percentile of sorted data by the
// nearest-rank method (the value at least p% of samples do not exceed).
func nearestRank[T cmp.Ordered](sorted []T, p float64) T {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// report prints the human-readable summary: every metric with its
// sample count, median, quartiles, tail percentile and MAD, then the
// failed checks and operations.
func (b *bench) report(w io.Writer, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d: %d operations, %d failed, correct=%v\n",
		b.sc.name, b.seed, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "%-34s %-9s %5s %14s %14s %14s %14s %s\n", "metric", "unit", "n", "median", "q1", "q3", "mad", "tail")
	fmt.Fprintf(w, "%-34s %016x\n", "digest", res.digest)
	for _, s := range res.stats {
		tail := "-"
		if s.sum.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.6g (%d beyond)", s.sum.TailPct, s.sum.Tail, s.sum.TailBeyond)
		}
		fmt.Fprintf(w, "%-34s %-9s %5d %14.6g %14.6g %14.6g %14.6g %s\n",
			s.name, s.unit, s.sum.N, s.sum.Median, s.sum.Q1, s.sum.Q3, s.sum.MAD, tail)
	}
	const maxShown = 20
	for i, c := range res.checks {
		if i == maxShown {
			fmt.Fprintf(w, "... %d more\n", len(res.checks)-maxShown)
			break
		}
		fmt.Fprintf(w, "%s\n", c)
	}
	fmt.Fprintf(w, "run output: %s\n", b.dir)
}
