package covirt

import "strings"

// IPIMode selects how IPI protection is implemented, matching the two
// hardware paths in the paper.
type IPIMode int

const (
	// IPIVAPICFull fully virtualizes the APIC: every ICR write and every
	// incoming interrupt causes a VM exit.
	IPIVAPICFull IPIMode = iota
	// IPIPostedInterrupt uses Posted Interrupt Vector support: ICR writes
	// still trap for filtering, but incoming IPIs are delivered through
	// the posted-interrupt descriptor without exits. External (device)
	// interrupts, including the local APIC timer, still exit.
	IPIPostedInterrupt
)

// String names the mode.
func (m IPIMode) String() string {
	if m == IPIPostedInterrupt {
		return "piv"
	}
	return "vapic"
}

// Features selects which protection mechanisms Covirt enables for an
// enclave. Each is independent, letting an operator trade protection for
// performance per workload (paper design goal 3).
type Features struct {
	// Memory enables EPT-based memory protection: accesses outside the
	// enclave's assigned (plus shared) memory are abort-class violations.
	Memory bool
	// IPI enables ICR interception and whitelist filtering of outbound
	// IPIs.
	IPI bool
	// IPIMode selects the implementation when IPI is set.
	IPIMode IPIMode
	// MSR intercepts model-specific register writes, terminating the
	// enclave on writes outside the permitted set.
	MSR bool
	// IO intercepts port I/O, terminating the enclave on access to ports
	// it has not been granted.
	IO bool
	// Abort contains abort-class exceptions (double faults) that would
	// otherwise reset the node.
	Abort bool
	// EPTMaxPage caps EPT leaf sizes (0 = coalesce up to 1 GiB). Setting
	// hw.PageSize4K disables the paper's large-page coalescing
	// optimization — used by the ablation benchmarks.
	EPTMaxPage uint64
	// CmdQSlots sets the per-CPU command-queue ring capacity (0 = the
	// default burst-sized ring). Must be a power of two that fits the
	// queue stride; the 8-slot setting reproduces the pre-batching
	// geometry for regression tests.
	CmdQSlots uint64
	// QoS is the enclave's token-bucket admission policy on the
	// controller's ingest path (the zero value admits every event).
	QoS QoS
}

// Common configurations used throughout the evaluation.
var (
	// FeaturesNone runs the enclave under the hypervisor with every
	// protection disabled — the paper's "no features" baseline isolating
	// the cost of virtualized execution itself.
	FeaturesNone = Features{}
	// FeaturesMem is memory protection only.
	FeaturesMem = Features{Memory: true, Abort: true}
	// FeaturesMemIPIVAPIC adds fully-virtualized-APIC IPI protection.
	FeaturesMemIPIVAPIC = Features{Memory: true, IPI: true, IPIMode: IPIVAPICFull, Abort: true}
	// FeaturesMemIPIPIV adds posted-interrupt IPI protection.
	FeaturesMemIPIPIV = Features{Memory: true, IPI: true, IPIMode: IPIPostedInterrupt, Abort: true}
	// FeaturesAll enables everything (PIV mode for IPIs).
	FeaturesAll = Features{Memory: true, IPI: true, IPIMode: IPIPostedInterrupt, MSR: true, IO: true, Abort: true}
)

// String renders a compact config label, e.g. "mem+ipi(piv)".
func (f Features) String() string {
	var parts []string
	if f.Memory {
		parts = append(parts, "mem")
	}
	if f.IPI {
		parts = append(parts, "ipi("+f.IPIMode.String()+")")
	}
	if f.MSR {
		parts = append(parts, "msr")
	}
	if f.IO {
		parts = append(parts, "io")
	}
	if f.Abort {
		parts = append(parts, "abort")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}
