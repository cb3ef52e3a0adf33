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

// streamVariants builds n BGQ variants that differ only in network
// latency.
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
	eng := explore.New(layoutOf(t, run), explore.Workers(4))
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
