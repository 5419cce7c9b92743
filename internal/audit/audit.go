// Package audit defines the cross-layer invariant-auditing contract
// for the simulated memory-management stack. Each stateful subsystem
// (buddy allocator, page table, TLB, machine layers, Gemini
// coordinator) implements Auditable by recomputing its invariants from
// scratch and reporting every discrepancy against its incremental
// bookkeeping. The simulator runs the full audit periodically and at
// run completion when EngineConfig.Audit is set, so an optimisation that
// corrupts state fails loudly with the layer, address, and violated
// invariant instead of silently skewing results.
//
// The package is a leaf: it imports nothing from the repository, so
// every substrate package can depend on it without cycles.
//
// See DESIGN.md §2 (system inventory) for where auditing sits in the
// reproduction, and §5 for the determinism contract audits rely on.
package audit

import (
	"fmt"
	"strings"
)

// Violation is one broken invariant discovered by an audit.
type Violation struct {
	// Layer names the subsystem that owns the invariant
	// ("buddy", "pagetable", "tlb", "vm0/guest", "gemini", ...).
	Layer string
	// Invariant is a stable identifier for the violated property
	// (e.g. "conservation", "rmap-inverse", "tlb-stale-entry").
	Invariant string
	// Addr locates the violation: a frame number, a virtual address,
	// or a huge-region index, depending on the invariant.
	Addr uint64
	// Detail is the human-readable expected-vs-found description.
	Detail string
}

// String formats the violation as one report line.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s @ %#x: %s", v.Layer, v.Invariant, v.Addr, v.Detail)
}

// Violationf builds a Violation with a formatted detail message.
func Violationf(layer, invariant string, addr uint64, format string, args ...interface{}) Violation {
	return Violation{
		Layer:     layer,
		Invariant: invariant,
		Addr:      addr,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// Auditable is implemented by subsystems that can recompute their
// invariants from scratch. CheckInvariants returns every violation
// found; an empty result means the subsystem is consistent.
type Auditable interface {
	CheckInvariants() []Violation
}

// Run audits every target and concatenates the violations.
func Run(targets ...Auditable) []Violation {
	var all []Violation
	for _, t := range targets {
		if t == nil {
			continue
		}
		all = append(all, t.CheckInvariants()...)
	}
	return all
}

// Prefix returns vs with prefix prepended to each Layer, locating
// violations from a shared substrate within its owner ("vm0/guest").
func Prefix(vs []Violation, prefix string) []Violation {
	if len(vs) == 0 {
		return nil
	}
	out := make([]Violation, len(vs))
	for i, v := range vs {
		v.Layer = prefix + v.Layer
		out[i] = v
	}
	return out
}

// Report renders violations as a multi-line report, one per line.
// Returns "" when vs is empty.
func Report(vs []Violation) string {
	if len(vs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):\n", len(vs))
	for _, v := range vs {
		b.WriteString("  ")
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Has reports whether vs contains a violation of the named invariant.
func Has(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Count returns how many violations of the named invariant vs holds.
// Mutation self-tests use it to assert a deliberate corruption is
// caught by exactly the invariant that owns it.
func Count(vs []Violation, invariant string) int {
	n := 0
	for _, v := range vs {
		if v.Invariant == invariant {
			n++
		}
	}
	return n
}
