package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"covirt/internal/cluster"
	"covirt/internal/covirt"
	"covirt/internal/harness"
	"covirt/internal/hobbes"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/testbed"
	"covirt/internal/vmx"
	"covirt/internal/workloads"
)

// scenario is one benchmark workload: a seeded job matrix that one pass
// runs in full.
type scenario struct {
	name string
	// deadline bounds every operation of the workload; it sits far above
	// an operation's normal host time, so only a hang passes it.
	deadline time.Duration
	// simMetrics are the workload's own simulated results (and host rates
	// over them), reported beside the end-to-end metrics.
	simMetrics []simMetric
	// volatile are prefixes of counters that vary with host scheduling
	// between identical passes; they are reported but left out of the
	// digest.
	volatile []string
	run      func(b *bench, p *pass)
}

// simMetric is a workload-specific result read from pass.sim; a host
// metric is divided by the pass's host seconds.
type simMetric struct {
	name, unit string
	host       bool
}

var scenarios = []*scenario{
	{
		name:     "hpcg",
		deadline: 30 * time.Second,
		simMetrics: []simMetric{
			{name: "covirt_overhead_pct", unit: "%"},
		},
		run: runHPCG,
	},
	{
		name:     "gups",
		deadline: 30 * time.Second,
		simMetrics: []simMetric{
			{name: "covirt_overhead_pct", unit: "%"},
			{name: "ept_4k_overhead_pct", unit: "%"},
		},
		run: runGUPS,
	},
	{
		name:     "ctl-storm",
		deadline: 500 * time.Millisecond,
		simMetrics: []simMetric{
			{name: "ctl_events_per_host_s", unit: "1/s", host: true},
			{name: "ctl_events_per_sim_s", unit: "1/s"},
			{name: "ctl_apply_p99_us", unit: "us"},
		},
		// The host raises a control IRQ per message and a command-queue
		// NMI per shootdown; whether one lands while the last is still
		// pending or being handled (for the IRQ, a nested delivery — the
		// path of the drainCtl self-deadlock) depends on host scheduling,
		// and with it the guest's IRQ count, its NMI exits and the cycles
		// they charge. Every other counter stays exact.
		volatile: []string{"hw.irqs_taken", "vmx.exit"},
		run:      runCtlStorm,
	},
	{
		name:     "fleet",
		deadline: 10 * time.Second,
		simMetrics: []simMetric{
			{name: "mttr_ms", unit: "ms"},
		},
		run: runFleet,
	},
}

func scenarioByName(name string) *scenario {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	return nil
}

func scenarioNames() []string {
	var names []string
	for _, sc := range scenarios {
		names = append(names, sc.name)
	}
	return names
}

// jobSeed derives a job's workload seed from the run's seed and the job's
// coordinates. Configurations of one layout share a seed, so each
// overhead compares the same inputs.
func jobSeed(seed uint64, coords ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, strings.Join(coords, "/"))
	return h.Sum64()
}

// sizes are the workloads' problem sizes. Tests shrink them.
type sizes struct {
	hpcgDim, hpcgIters int // HPCG grid edge and CG iterations
	gupsUpdates        int // RandomAccess updates per job
	ctlLegs, ctlPairs  int // storm legs per mode per pass, grant+revoke pairs per leg
	fleetNodes         int
}

// fullSizes are the benchmark's sizes: fig7's stock HPCG problem, enough
// RandomAccess updates that translation work dominates a job, the
// ctl-saturation experiment's 256-pair legs, and the -full fleet size,
// which makes a fleet pass long enough to time steadily.
var fullSizes = sizes{hpcgDim: 40, hpcgIters: 15, gupsUpdates: 1 << 20, ctlLegs: 16, ctlPairs: 256, fleetNodes: 1024}

// enclaveMem is the paper's enclave size (harness.NewNode's default).
const enclaveMem = 14 << 30

// guestJob runs one workload job on a fresh single-enclave node — build,
// run, read the counters, close — as one operation, and returns the
// workload's result (nil when the operation failed).
func (b *bench) guestJob(p *pass, cfg harness.Config, l harness.Layout, w workloads.Runner, seed uint64) *workloads.Result {
	w.(workloads.Seeder).SetSeed(seed)
	job := fmt.Sprintf("%s/%s/%s", w.Name(), cfg.Name, l.Name)
	var (
		build    time.Duration
		res      *workloads.Result
		counters map[string]float64
	)
	spec := testbed.Spec{
		Covirt:   cfg.Covirt,
		Features: cfg.Features,
		Guests: []testbed.Guest{{
			Name: "bench-" + cfg.Name, Cores: l.Cores, Nodes: l.Nodes, MemBytes: enclaveMem,
		}},
	}
	ok := b.op(p, job, func(id int) (err error) {
		var n *testbed.Node
		if n, build, err = b.buildNode(id, spec); err != nil {
			return err
		}
		_, err = b.call(id, "workloads.Runner.Run", func() (err error) {
			res, err = w.Run(n.Kitten(), l.Cores)
			return err
		})
		counters = b.closeNode(id, n)
		return err
	})
	if !ok {
		return nil
	}
	p.setup += build
	for k, v := range counters {
		p.add(k, v)
	}
	p.add(job+"/cycles", float64(res.Cycles))
	for i, c := range res.PerCore {
		p.add(fmt.Sprintf("%s/core%d", job, i), float64(c))
		p.simCycles += float64(c)
	}
	for k, v := range res.Metrics {
		p.add(job+"/"+k, v)
	}
	return res
}

// overheadPct is the simulated overhead of x over base, in percent.
func overheadPct(base, x uint64) float64 { return 100 * (float64(x)/float64(base) - 1) }

// runHPCG is the fig7 HPCG CG solve, native and covirt-mem, on the
// single-core and the 4-core/2-NUMA-node paper layouts.
func runHPCG(b *bench, p *pass) {
	var native, cov uint64
	complete := true
	for _, l := range []harness.Layout{harness.SingleCore, harness.Layouts[1]} {
		seed := jobSeed(b.seed, "hpcg", l.Name)
		for _, cfg := range []harness.Config{harness.CfgNative, harness.CfgCovirtMem} {
			d := b.size.hpcgDim
			res := b.guestJob(p, cfg, l, &workloads.HPCG{NX: d, NY: d, NZ: d, Iters: b.size.hpcgIters}, seed)
			switch {
			case res == nil:
				complete = false
			case cfg.Covirt:
				cov += res.Cycles
			default:
				native += res.Cycles
			}
		}
	}
	if complete {
		p.sim["covirt_overhead_pct"] = overheadPct(native, cov)
	}
}

// runGUPS is RandomAccess over a 2^25-word table on one core under
// native, covirt-mem and covirt-mem-4konly.
func runGUPS(b *bench, p *pass) {
	seed := jobSeed(b.seed, "gups")
	cycles := map[string]uint64{}
	for _, cfg := range []harness.Config{harness.CfgNative, harness.CfgCovirtMem, harness.CfgCovirtMem4K} {
		res := b.guestJob(p, cfg, harness.SingleCore, &workloads.RandomAccess{LogTableSize: 25, Updates: b.size.gupsUpdates}, seed)
		if res != nil {
			cycles[cfg.Name] = res.Cycles
		}
	}
	native := cycles[harness.CfgNative.Name]
	if mem := cycles[harness.CfgCovirtMem.Name]; native > 0 && mem > 0 {
		p.sim["covirt_overhead_pct"] = overheadPct(native, mem)
	}
	if mem4k := cycles[harness.CfgCovirtMem4K.Name]; native > 0 && mem4k > 0 {
		p.sim["ept_4k_overhead_pct"] = overheadPct(native, mem4k)
	}
}

// ctlBatch is the batched storm leg's events per submission batch; each
// batch closes one shootdown epoch.
const ctlBatch = 32

// ctlLegResult is one storm leg's simulated outcome.
type ctlLegResult struct {
	ctlCycles  uint64   // control-plane cycles charged on the event path
	applyCosts []uint64 // revoke events' apply cost
}

// runCtlStorm drives memory grant/revoke storms through pisces → hobbes →
// covirt, alternating per-event and batched legs.
func runCtlStorm(b *bench, p *pass) {
	var batchedCycles uint64
	var batchedApply []uint64
	batchedLegs := 0
	pairs := b.size.ctlPairs
	for leg := 0; leg < b.size.ctlLegs; leg++ {
		for _, batch := range []int{1, ctlBatch} {
			r := b.ctlLeg(p, leg, batch)
			if r == nil {
				continue
			}
			p.simCycles += float64(r.ctlCycles)
			p.sim["ctl_events_per_host_s"] += float64(2 * pairs)
			if batch > 1 {
				batchedLegs++
				batchedCycles += r.ctlCycles
				batchedApply = append(batchedApply, r.applyCosts...)
			}
		}
	}
	if batchedLegs > 0 {
		slices.Sort(batchedApply)
		p.sim["ctl_events_per_sim_s"] = float64(batchedLegs*2*pairs) / workloads.Seconds(batchedCycles)
		p.sim["ctl_apply_p99_us"] = workloads.Seconds(nearestRank(batchedApply, 99)) * 1e6
	}
}

// ctlLeg runs one storm leg on a fresh single-enclave node as one
// operation and checks that the storm left no mapping behind.
func (b *bench) ctlLeg(p *pass, leg, batch int) *ctlLegResult {
	mode := "per-event"
	if batch > 1 {
		mode = "batched"
	}
	name := fmt.Sprintf("ctl-storm/%s/%d", mode, leg)
	spec := testbed.Spec{
		Machine:      hw.MachineSpec{NumNodes: 1, CoresPerNode: 5, MemPerNode: 1 << 30},
		OfflineCores: []int{1, 2, 3, 4},
		OfflineMem:   map[int]uint64{0: 256 << 20},
		Covirt:       true,
		Features:     covirt.FeaturesMem,
		Guests:       []testbed.Guest{{Name: "ctlstorm", Cores: 4, Nodes: []int{0}, MemBytes: 32 << 20}},
	}
	var (
		build    time.Duration
		res      *ctlLegResult
		counters map[string]float64
		checks   []string
	)
	if !b.op(p, name, func(id int) (err error) {
		var n *testbed.Node
		if n, build, err = b.buildNode(id, spec); err != nil {
			return err
		}
		res, checks, err = b.storm(id, n, batch)
		counters = b.closeNode(id, n)
		return err
	}) {
		return nil
	}
	p.setup += build
	for _, c := range checks {
		p.checks = append(p.checks, fmt.Sprintf("check: %s: %s", name, c))
	}
	for k, v := range counters {
		p.add(k, v)
	}
	p.add(name+"/ctl_cycles", float64(res.ctlCycles))
	apply := slices.Clone(res.applyCosts)
	slices.Sort(apply)
	var sum uint64
	for _, c := range apply {
		sum += c
	}
	p.add(name+"/apply_n", float64(len(apply)))
	p.add(name+"/apply_sum", float64(sum))
	if len(apply) > 0 {
		p.add(name+"/apply_p50", float64(nearestRank(apply, 50)))
		p.add(name+"/apply_p99", float64(nearestRank(apply, 99)))
		p.add(name+"/apply_max", float64(apply[len(apply)-1]))
	}
	return res
}

// storm submits the leg's grant+revoke pairs to n's enclave, batch events
// per batch, and returns the control plane's charges with any failed
// output checks.
func (b *bench) storm(id int, n *testbed.Node, batch int) (*ctlLegResult, []string, error) {
	enc := n.Enc()
	res := &ctlLegResult{}
	// Subscribed after the controller, so each event's Cost already holds
	// the controller's unmap + shootdown charge.
	n.Host.Master.Bus.Subscribe(func(ev *hobbes.Event) error {
		if ev.Enclave != enc {
			return nil
		}
		switch ev.Kind {
		case hobbes.EvMemAddPre, hobbes.EvIngestFlush:
			res.ctlCycles += ev.Cost
		case hobbes.EvMemRemovePost:
			res.ctlCycles += ev.Cost
			res.applyCosts = append(res.applyCosts, ev.Cost)
		}
		return nil
	})
	pre := n.Ctrl.StatusFor(enc.ID).EPT
	preEvents := n.Ctrl.QueueStatsFor(enc.ID).Ingest.Events

	fw := n.Host.Pisces
	pairs := b.size.ctlPairs
	exts := make([]hw.Extent, 0, batch)
	for done := 0; done < pairs; done += len(exts) {
		exts = exts[:0]
		for i := 0; i < batch && done+i < pairs; i++ {
			var ext hw.Extent
			if _, err := b.call(id, "pisces.Framework.AddMemory", func() (err error) {
				ext, err = fw.AddMemory(enc, 0, hw.PageSize2M)
				return err
			}); err != nil {
				return nil, nil, err
			}
			exts = append(exts, ext)
		}
		var err error
		if batch == 1 {
			_, err = b.call(id, "pisces.Framework.RemoveMemory", func() error { return fw.RemoveMemory(enc, exts[0]) })
		} else {
			_, err = b.call(id, "pisces.Framework.RemoveMemoryBatch", func() error { return fw.RemoveMemoryBatch(enc, exts) })
		}
		if err != nil {
			return nil, nil, err
		}
	}

	var checks []string
	if post := n.Ctrl.StatusFor(enc.ID).EPT; post != pre {
		checks = append(checks, fmt.Sprintf("EPT %+v after the storm, %+v before", post, pre))
	}
	if got := n.Ctrl.QueueStatsFor(enc.ID).Ingest.Events - preEvents; got != uint64(2*pairs) {
		checks = append(checks, fmt.Sprintf("controller ingested %d events, %d sent", got, 2*pairs))
	}
	return res, checks, nil
}

// fleetCrashStride spaces the fleet's correlated crash: every 16th node.
const fleetCrashStride = 16

// runFleet builds a fleet, gang-places a two-member app per four nodes,
// crashes every 16th node, runs one Recover scan and rolls UpgradeNode over
// the surviving nodes. UpgradeNode leaves every replaced enclave running
// (the leak the leak metrics show); those are destroyed only after the
// pass's leak has been measured, so passes do not pile them up. The pass
// stops at its first failed operation: an abandoned call may still hold
// the cluster's lock.
func runFleet(b *bench, p *pass) {
	fleetNodes := b.size.fleetNodes
	live := func(n int) bool { return n%fleetCrashStride != 0 }
	var c *cluster.Cluster
	var build time.Duration
	if !b.op(p, "fleet/build", func(id int) (err error) {
		build, err = b.call(id, "cluster.New", func() (err error) {
			c, err = cluster.New(cluster.Options{Nodes: fleetNodes, Seed: jobSeed(b.seed, "fleet"), Shards: fleetNodes})
			return err
		})
		return err
	}) {
		return
	}
	p.setup += build

	for i := 0; i < fleetNodes/4; i++ {
		app := cluster.App{Name: fmt.Sprintf("app%d", i), Members: []cluster.Member{
			{Name: "a", Cores: 1, MemBytes: 32 << 20},
			{Name: "b", Cores: 1, MemBytes: 32 << 20},
		}}
		var pl *cluster.Placement
		if !b.op(p, "fleet/place/"+app.Name, func(id int) (err error) {
			_, err = b.call(id, "cluster.Cluster.Place", func() (err error) {
				pl, err = c.Place(app)
				return err
			})
			return err
		}) {
			return
		}
		for _, m := range pl.Members {
			p.add(fmt.Sprintf("fleet/%s/%s/node", app.Name, m.Member.Name), float64(m.Node))
		}
	}

	for n := 0; n < fleetNodes; n++ {
		if !live(n) {
			c.Nodes[n].TB.M.Crash("perfbench: injected rack fault")
		}
	}
	clock0 := c.Clock.Now()
	var rep cluster.RecoverReport
	if !b.op(p, "fleet/recover", func(id int) error {
		_, err := b.call(id, "cluster.Cluster.Recover", func() error { rep = c.Recover(); return nil })
		return err
	}) {
		return
	}
	p.check(rep.Stranded == 0, "fleet: %d members stranded", rep.Stranded)
	p.check(rep.Replaced == rep.Displaced, "fleet: %d of %d displaced members replaced", rep.Replaced, rep.Displaced)
	p.check(len(rep.Failed) == fleetNodes/fleetCrashStride, "fleet: Recover saw %d failed nodes, %d crashed", len(rep.Failed), fleetNodes/fleetCrashStride)
	p.add("cluster.displaced", float64(rep.Displaced))
	p.add("cluster.replaced", float64(rep.Replaced))
	p.add("cluster.stranded", float64(rep.Stranded))
	var sum uint64
	for i, m := range rep.MTTR {
		p.add(fmt.Sprintf("fleet/mttr%d", i), float64(m))
		sum += m
	}
	if len(rep.MTTR) > 0 {
		p.sim["mttr_ms"] = workloads.Seconds(sum/uint64(len(rep.MTTR))) * 1e3
	}
	p.simCycles += float64(c.Clock.Now() - clock0)

	// The enclaves UpgradeNode is about to replace.
	var replaced []cluster.Placed
	for _, pl := range c.Placements() {
		replaced = append(replaced, pl.Members...)
	}
	for n := 0; n < fleetNodes; n++ {
		if !live(n) {
			continue
		}
		var window uint64
		if !b.op(p, fmt.Sprintf("fleet/upgrade/%d", n), func(id int) (err error) {
			_, err = b.call(id, "cluster.Cluster.UpgradeNode", func() (err error) {
				window, err = c.UpgradeNode(n)
				return err
			})
			return err
		}) {
			return
		}
		p.simCycles += float64(window)
		p.add(fmt.Sprintf("fleet/upgrade%d/window", n), float64(window))
	}
	stale := 0
	var ks []*kitten.Kernel
	for n := 0; n < fleetNodes; n++ {
		if !live(n) {
			continue
		}
		if c.Version(n) != 2 {
			stale++
		}
		ks = append(ks, kernelsOf(c.Nodes[n].TB)...)
	}
	p.check(stale == 0, "fleet: %d live nodes not at version 2 after the roll", stale)

	if !b.op(p, "fleet/close", func(id int) error {
		_, err := b.call(id, "cluster.Cluster.Close", func() error { c.Close(); return nil })
		return err
	}) {
		return
	}
	counters := map[string]float64{}
	coreCounters(counters, ks, false)
	for k, v := range counters {
		p.add(k, v)
	}
	p.cleanup = append(p.cleanup, func() {
		b.op(p, "fleet/destroy-replaced", func(int) error {
			var errs []error
			for _, m := range replaced {
				errs = append(errs, c.Nodes[m.Node].TB.Host.Pisces.Destroy(m.Enc.Enc))
			}
			return errors.Join(errs...)
		})
	})
}

// buildNode builds spec's node and returns it with the build's host time.
func (b *bench) buildNode(id int, spec testbed.Spec) (n *testbed.Node, d time.Duration, err error) {
	d, err = b.call(id, "testbed.Spec.Build", func() (err error) {
		n, err = spec.Build()
		return err
	})
	return n, d, err
}

// closeNode closes a node and returns its per-layer counters: the
// controller's per-enclave stats are read while the enclaves live, the
// guest cores' hw counters once Close has quiesced the cores — until then
// an idle core may still be servicing a doorbell or a shootdown.
func (b *bench) closeNode(id int, n *testbed.Node) map[string]float64 {
	c := map[string]float64{}
	controllerCounters(c, n)
	ks := kernelsOf(n)
	b.call(id, "testbed.Node.Close", func() error { n.Close(); return nil })
	coreCounters(c, ks, n.Ctrl != nil)
	return c
}

func kernelsOf(n *testbed.Node) []*kitten.Kernel {
	var ks []*kitten.Kernel
	for _, e := range n.Encs {
		if e.Kitten != nil {
			ks = append(ks, e.Kitten)
		}
	}
	return ks
}

// teardownTSC is the covirt guests' summed core clocks after Close, the
// denominator of vmx.exit_cycle_share. Teardown charges cycles that depend
// on host scheduling, so it stays out of every digest.
const teardownTSC = "vmx.covirt_tsc"

// coreCounters adds the hw counters of the kernels' cores to c.
func coreCounters(c map[string]float64, ks []*kitten.Kernel, covirt bool) {
	for _, k := range ks {
		for i := 0; i < k.NumCores(); i++ {
			cpu := k.CPU(i)
			s := cpu.TLB.Stats()
			c["hw.tlb_hits"] += float64(s.Hits)
			c["hw.tlb_misses"] += float64(s.Misses)
			c["hw.tlb_flushes"] += float64(s.Flushes)
			c["hw.irqs_taken"] += float64(cpu.IRQsTaken)
			c["hw.instret"] += float64(cpu.Instret)
			if covirt {
				c[teardownTSC] += float64(cpu.TSC)
			}
		}
	}
}

// exitReasons are every VM exit reason, in the order vmx numbers them.
var exitReasons = func() []string {
	var out []string
	for r := vmx.ExitEPTViolation; r <= vmx.ExitTripleFault; r++ {
		out = append(out, r.String())
	}
	return out
}()

// controllerCounters adds the Covirt controller's stats for every enclave
// on the node to c.
func controllerCounters(c map[string]float64, n *testbed.Node) {
	if n.Ctrl == nil {
		return
	}
	for _, e := range n.Encs {
		if st := n.Ctrl.StatusFor(e.Enc.ID); st != nil {
			c["vmx.ept_leaves_4k"] += float64(st.EPT.Mapped4K)
			c["vmx.ept_leaves_2m"] += float64(st.EPT.Mapped2M)
			c["vmx.ept_leaves_1g"] += float64(st.EPT.Mapped1G)
			for _, r := range exitReasons {
				c["vmx.exits"] += float64(st.Exits[r])
				c["vmx.exits."+strings.ToLower(r)] += float64(st.Exits[r])
			}
			c["vmx.exit_cycles"] += float64(st.ExitCycles)
			c["covirt.map_ops"] += float64(st.MapOps)
			c["covirt.unmap_ops"] += float64(st.UnmapOps)
			c["covirt.flush_cmds"] += float64(st.FlushCmds)
		}
		if qs := n.Ctrl.QueueStatsFor(e.Enc.ID); qs != nil {
			c["covirt.flush_saved"] += float64(qs.Ingest.FlushCmdsSaved)
			c["covirt.epochs"] += float64(qs.Ingest.Epochs)
			c["covirt.stall_cycles"] += float64(qs.Ingest.StallCycles)
			c["covirt.admission_waits"] += float64(qs.Ingest.AdmissionWaits)
		}
	}
}

// layerMetric is one per-layer metric. A timing metric sums the spans
// named span per pass, or, with pct > 0, is that percentile of single
// calls; a counter metric reads the pass's counters through value, or
// the counter of its own name when value is nil.
type layerMetric struct {
	name, unit string
	span       string
	pct        float64
	value      func(c map[string]float64) float64
}

func counter(name, unit string) layerMetric { return layerMetric{name: name, unit: unit} }

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// perLayerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order; the leak metrics, host_cpu shares and tracing
// overhead follow them.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{name: "testbed.build_s", unit: "s", span: "testbed.Spec.Build"},
		{name: "testbed.close_s", unit: "s", span: "testbed.Node.Close"},
		{name: "workloads.run_s", unit: "s", span: "workloads.Runner.Run"},
		counter("hw.tlb_hits", "count"),
		counter("hw.tlb_misses", "count"),
		{name: "hw.tlb_hit_ratio", unit: "%", value: func(c map[string]float64) float64 {
			return share(c["hw.tlb_hits"], c["hw.tlb_hits"]+c["hw.tlb_misses"])
		}},
		counter("hw.tlb_flushes", "count"),
		counter("hw.irqs_taken", "count"),
		counter("hw.instret", "count"),
		counter("vmx.ept_leaves_4k", "count"),
		counter("vmx.ept_leaves_2m", "count"),
		counter("vmx.ept_leaves_1g", "count"),
		counter("vmx.exits", "count"),
	}
	for _, r := range exitReasons {
		ms = append(ms, counter("vmx.exits."+strings.ToLower(r), "count"))
	}
	ms = append(ms,
		counter("vmx.exit_cycles", "cycles"),
		layerMetric{name: "vmx.exit_cycle_share", unit: "%", value: func(c map[string]float64) float64 {
			return share(c["vmx.exit_cycles"], c[teardownTSC])
		}},
		counter("covirt.map_ops", "count"),
		counter("covirt.unmap_ops", "count"),
		counter("covirt.flush_cmds", "count"),
		counter("covirt.flush_saved", "count"),
		counter("covirt.epochs", "count"),
		counter("covirt.stall_cycles", "cycles"),
		counter("covirt.admission_waits", "count"),
		layerMetric{name: "pisces.add_memory_s.p50", unit: "s", span: "pisces.Framework.AddMemory", pct: 50},
		layerMetric{name: "pisces.add_memory_s.p99", unit: "s", span: "pisces.Framework.AddMemory", pct: 99},
		layerMetric{name: "pisces.remove_memory_s.p50", unit: "s", span: "pisces.Framework.RemoveMemory", pct: 50},
		layerMetric{name: "pisces.remove_memory_s.p99", unit: "s", span: "pisces.Framework.RemoveMemory", pct: 99},
		layerMetric{name: "pisces.remove_memory_batch_s.p50", unit: "s", span: "pisces.Framework.RemoveMemoryBatch", pct: 50},
		layerMetric{name: "pisces.remove_memory_batch_s.p99", unit: "s", span: "pisces.Framework.RemoveMemoryBatch", pct: 99},
		layerMetric{name: "cluster.new_s", unit: "s", span: "cluster.New"},
		layerMetric{name: "cluster.place_s", unit: "s", span: "cluster.Cluster.Place"},
		layerMetric{name: "cluster.recover_s", unit: "s", span: "cluster.Cluster.Recover"},
		layerMetric{name: "cluster.upgrade_node_s", unit: "s", span: "cluster.Cluster.UpgradeNode"},
		counter("cluster.displaced", "count"),
		counter("cluster.replaced", "count"),
		counter("cluster.stranded", "count"),
	)
	return ms
}()
