package shard

import (
	"fmt"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/resilience"
	"skope/internal/workloads"
)

// JobSpec is the self-contained description of one sharded sweep — small
// enough to travel as JSON, complete enough that any worker can reproduce
// the exact grid from it. The base machine travels in wire form (IEEE-754
// bit patterns), axis values survive JSON exactly (Go round-trips float64
// through its shortest decimal form), and the grid order is deterministic,
// so every participant derives the same variants, fingerprints, and
// partition from the same spec.
//
// Deliberately absent: selection criteria and the confidence floor. The
// journal records workers produce are per-block times — mode-independent
// by construction — so those settings apply where the merged journal is
// finally replayed, not where the variants are evaluated.
type JobSpec struct {
	// Bench names a registry benchmark (workloads.Get) unless Source
	// inlines the program text directly.
	Bench string  `json:"bench"`
	Scale float64 `json:"scale,omitempty"`
	// Source, when non-empty, is the workload's minilang text; Bench then
	// only names it. Seed drives the deterministic profiling stream.
	Source string `json:"source,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// Base is the grid's base machine, bit-exact.
	Base hw.WireMachine `json:"base"`
	// Axes are the swept parameters (explore.Axis vocabulary).
	Axes []explore.Axis `json:"axes"`

	// Lenient selects the error-recovering preparation pipeline.
	Lenient bool `json:"lenient,omitempty"`
	// Retries bounds per-variant retry attempts on transient failures.
	Retries int `json:"retries,omitempty"`
	// VariantTimeoutMs bounds each evaluation attempt (0 = none).
	VariantTimeoutMs int64 `json:"variant_timeout_ms,omitempty"`

	// LayoutFP is the layout fingerprint the prepared workload must
	// resolve to. It keys every shard fingerprint and the merged journal's
	// binding; a worker whose preparation disagrees (version skew, drifted
	// priors) must abort rather than contribute.
	LayoutFP string `json:"layout"`
	// ShardSize is the partition's variants-per-shard (< 1 selects 16).
	ShardSize int `json:"shard_size,omitempty"`
}

// Workload materializes the spec's workload: the inline source if present,
// the registry benchmark otherwise.
func (s *JobSpec) Workload() (*workloads.Workload, error) {
	if s.Source != "" {
		name := s.Bench
		if name == "" {
			name = "inline"
		}
		return &workloads.Workload{Name: name, Source: s.Source, Seed: s.Seed}, nil
	}
	if s.Bench == "" {
		return nil, fmt.Errorf("shard: job spec has neither bench nor source")
	}
	return workloads.Get(s.Bench, workloads.Scale(s.Scale))
}

// Grid returns the spec's design-space grid.
func (s *JobSpec) Grid() *explore.Grid {
	return &explore.Grid{Base: s.Base.Machine(), Axes: s.Axes}
}

// Variants materializes the grid in its deterministic order.
func (s *JobSpec) Variants() ([]*hw.Machine, error) {
	return s.Grid().Variants()
}

// Shards partitions the spec's variants under its layout fingerprint.
func (s *JobSpec) Shards() ([]Shard, error) {
	variants, err := s.Variants()
	if err != nil {
		return nil, err
	}
	return Partition(s.LayoutFP, variants, s.ShardSize), nil
}

// Options translates the spec's evaluation settings into pipeline options
// for the worker's Prepare and Sweep calls.
func (s *JobSpec) Options() []pipeline.Option {
	opts := []pipeline.Option{pipeline.WithLenient(s.Lenient)}
	if s.Retries > 0 {
		opts = append(opts, pipeline.WithRetry(resilience.DefaultPolicy(s.Retries)))
	}
	if s.VariantTimeoutMs > 0 {
		opts = append(opts, pipeline.WithVariantTimeout(time.Duration(s.VariantTimeoutMs)*time.Millisecond))
	}
	return opts
}
