package hw

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Fingerprint returns a stable 64-bit hex digest of every parameter of
// the machine (including its name). Two machines fingerprint equal iff
// every field — compared at the bit level for floats — is equal, so the
// digest is a durable identity for a design-space variant: the result
// store keys completed work on it, and a sweep run again over the store
// uses it to decide which variants are served instead of recomputed.
//
// The field order below is part of the store's key contract; append new
// fields at the end rather than reordering.
func (m *Machine) Fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	f := func(v float64) { u64(math.Float64bits(v)) }
	i := func(v int) { u64(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	h.Write([]byte(m.Name))
	h.Write([]byte{0}) // terminate the name so "a"+fields != "ab"+fields
	f(m.FreqGHz)
	i(m.IssueWidth)
	f(m.FPOpsPerCycle)
	f(m.IntOpsPerCycle)
	i(m.VectorWidth)
	b(m.AutoVectorize)
	i(m.DivLatencyCyc)
	b(m.Prefetch)
	i(m.L1SizeB)
	i(m.L1LineB)
	i(m.L1Assoc)
	i(m.L1LatencyCyc)
	i(m.LLCSizeB)
	i(m.LLCLineB)
	i(m.LLCAssoc)
	i(m.LLCLatencyCyc)
	i(m.MemLatencyCyc)
	f(m.MemBandwidthGBs)
	f(m.MemConcurrency)
	f(m.HitL1)
	f(m.HitLLC)
	f(m.NetLatencyUs)
	f(m.NetBandwidthGBs)
	return fmt.Sprintf("%016x", h.Sum64())
}
