package explore_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
)

// sweep collects eng.Stream into analyses index-aligned with variants.
// Failed variants stay nil and come back in a *explore.SweepError sorted
// by index, joined with wait's error (cancellation or store degradation).
func sweep(ctx context.Context, eng *explore.Engine, variants []*hw.Machine) ([]*hotspot.Analysis, error) {
	out := make([]*hotspot.Analysis, len(variants))
	var failures []*explore.VariantError
	results, wait := eng.Stream(ctx, variants)
	for r := range results {
		var ve *explore.VariantError
		if errors.As(r.Err, &ve) {
			failures = append(failures, ve)
			continue
		}
		out[r.Index] = r.Analysis
	}
	var errs []error
	if len(failures) > 0 {
		sort.Slice(failures, func(i, j int) bool { return failures[i].Index < failures[j].Index })
		errs = append(errs, &explore.SweepError{Variants: failures})
	}
	return out, errors.Join(append(errs, wait())...)
}

// streamVariants builds n distinct-communication BGQ variants (comp times
// memoize to one entry, comm times are all distinct).
func streamVariants(n int) []*hw.Machine {
	out := make([]*hw.Machine, n)
	for i := range out {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("s%d", i)
		m.NetLatencyUs = float64(i + 1)
		out[i] = m
	}
	return out
}

// TestStreamCancellationAbandonedConsumer cancels a sweep and then walks
// away without draining the results channel — the harshest consumer.
// Cancellation must stop the workers, wait() must return the wrapped
// context error rather than hang, and no goroutine may outlive the sweep.
func TestStreamCancellationAbandonedConsumer(t *testing.T) {
	run := prepared(t, "sord")
	eng, err := explore.New(run.BET, run.Libs, explore.Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	results, wait := eng.Stream(ctx, streamVariants(500))
	// Consume just enough to know the pool is live, then abandon.
	if _, ok := <-results; !ok {
		t.Fatal("stream closed before first result")
	}
	cancel()
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("wait() = %v, want wrapped context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestCacheStatsConservation drives one sweep through many racing workers
// and checks the memoization counters balance exactly: every variant does
// one computation lookup and one communication lookup, so under any
// interleaving Hits+Misses must equal 2x the variant count, and each
// distinct parameter subset must miss exactly once. Run under -race this
// doubles as a data-race check on the counter updates.
func TestCacheStatsConservation(t *testing.T) {
	run := prepared(t, "sord")
	const n = 64
	variants := streamVariants(n)
	eng, err := explore.New(run.BET, run.Libs, explore.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sweep(context.Background(), eng, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out {
		if a == nil {
			t.Fatalf("variant %d missing", i)
		}
	}
	stats := eng.CacheStats()
	if got := stats.Hits + stats.Misses; got != 2*n {
		t.Errorf("Hits(%d)+Misses(%d) = %d, want %d (two lookups per variant)",
			stats.Hits, stats.Misses, got, 2*n)
	}
	// All variants share compute parameters (1 comp miss) and have n
	// distinct communication parameter sets (n comm misses).
	if stats.Misses != n+1 {
		t.Errorf("Misses = %d, want %d (1 comp subset + %d comm subsets)", stats.Misses, n+1, n)
	}
	// A second identical sweep must be all hits and still balance.
	if _, err := sweep(context.Background(), eng, variants); err != nil {
		t.Fatal(err)
	}
	stats2 := eng.CacheStats()
	if got := stats2.Hits + stats2.Misses; got != 4*n {
		t.Errorf("after resweep Hits(%d)+Misses(%d) = %d, want %d",
			stats2.Hits, stats2.Misses, got, 4*n)
	}
	if stats2.Misses != stats.Misses {
		t.Errorf("resweep added misses: %d -> %d, want all hits", stats.Misses, stats2.Misses)
	}
}
