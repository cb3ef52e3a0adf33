package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"skope/internal/guard"
	"skope/internal/resilience"
)

// noSleep is the test hook that records requested backoffs instead of
// actually waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestDoSucceedsWithinBudget(t *testing.T) {
	var delays []time.Duration
	p := resilience.Policy{MaxAttempts: 4, Sleep: noSleep(&delays)}
	calls := 0
	attempts, err := p.Do(context.Background(), func(n int) error {
		calls++
		if n != calls {
			t.Errorf("attempt number %d, want %d", n, calls)
		}
		if n < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls %d; want (3, nil, 3)", attempts, err, calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	var delays []time.Duration
	p := resilience.Policy{MaxAttempts: 3, Sleep: noSleep(&delays)}
	boom := errors.New("still broken")
	attempts, err := p.Do(context.Background(), func(int) error { return boom })
	if !errors.Is(err, boom) || attempts != 3 {
		t.Fatalf("Do = (%d, %v), want (3, boom)", attempts, err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestDoZeroPolicyMeansSingleAttempt(t *testing.T) {
	var p resilience.Policy
	calls := 0
	attempts, err := p.Do(context.Background(), func(int) error { calls++; return errors.New("x") })
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("zero policy: %d attempts, %d calls, err %v", attempts, calls, err)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	p := resilience.Policy{MaxAttempts: 5, Sleep: noSleep(new([]time.Duration))}
	calls := 0
	cause := errors.New("bad machine")
	_, err := p.Do(context.Background(), func(int) error {
		calls++
		return fmt.Errorf("wrapped: %w", resilience.Permanent(cause))
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, cause) || !resilience.IsPermanent(err) {
		t.Errorf("cause lost through Permanent: %v", err)
	}
}

func TestDoStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := resilience.Policy{MaxAttempts: 5}
	calls := 0
	attempts, err := p.Do(ctx, func(int) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if calls != 1 || attempts != 1 {
		t.Errorf("canceled Do kept going: %d calls", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("anything"), true},
		{fmt.Errorf("recovered: %w", guard.ErrPanic), true},
		{context.Canceled, false},
		{fmt.Errorf("sweep: %w", context.Canceled), false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("variant: %w", resilience.ErrAttemptTimeout), true},
		{resilience.Permanent(errors.New("validation")), false},
		{fmt.Errorf("wrap: %w", resilience.Permanent(errors.New("validation"))), false},
		{guard.ErrLimit, false},
		{fmt.Errorf("bet: %w", guard.ErrLimit), false},
		{&guard.LimitError{What: "BET nodes", Value: 11, Max: 10}, false},
		{fmt.Errorf("variant: %w", &guard.LimitError{What: "contexts", Value: 3, Max: 2}), false},
	}
	for _, c := range cases {
		if got := resilience.Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := resilience.Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Jitter: -1} // Jitter<0 clamps to none: deterministic
	wants := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, want := range wants {
		if got := p.Backoff(i + 1); got != want*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
}

func TestBackoffJitterStaysInBand(t *testing.T) {
	p := resilience.Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.2}
	for i := 0; i < 200; i++ {
		d := p.Backoff(1)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered Backoff(1) = %v outside ±20%% band", d)
		}
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := resilience.NewBreaker(3)
	for i := 0; i < 2; i++ {
		if opened := b.Failure("panic"); opened {
			t.Fatalf("breaker opened after %d failures", i+1)
		}
		if !b.Allow("panic") {
			t.Fatalf("breaker closed after %d failures", i+1)
		}
	}
	if opened := b.Failure("panic"); !opened {
		t.Fatal("third failure did not open the circuit")
	}
	if b.Allow("panic") {
		t.Error("open circuit still allows")
	}
	if b.Allow("timeout") {
		// Different class is unaffected.
	} else {
		t.Error("unrelated class tripped")
	}
}

func TestBreakerNilIsNoOp(t *testing.T) {
	var b *resilience.Breaker
	if !b.Allow("x") {
		t.Error("nil breaker denied")
	}
	if b.Failure("x") {
		t.Error("nil breaker opened")
	}
}

func TestDefaultPolicyRetries(t *testing.T) {
	if got := resilience.DefaultPolicy(4).Retries(); got != 4 {
		t.Errorf("DefaultPolicy(4).Retries() = %d", got)
	}
	if got := (resilience.Policy{}).Retries(); got != 0 {
		t.Errorf("zero policy Retries() = %d", got)
	}
}
