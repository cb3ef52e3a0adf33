package resilience_test

import (
	"errors"
	"fmt"
	"testing"

	"skope/internal/guard"
	"skope/internal/resilience"
)

func TestDoSucceedsWithinBudget(t *testing.T) {
	p := resilience.Policy{MaxAttempts: 4}
	calls := 0
	attempts, err := p.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls %d; want (3, nil, 3)", attempts, err, calls)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	p := resilience.Policy{MaxAttempts: 3}
	boom := errors.New("still broken")
	calls := 0
	attempts, err := p.Do(func() error { calls++; return boom })
	if !errors.Is(err, boom) || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls %d; want (3, boom, 3)", attempts, err, calls)
	}
}

func TestDoZeroPolicyMeansSingleAttempt(t *testing.T) {
	var p resilience.Policy
	calls := 0
	attempts, err := p.Do(func() error { calls++; return errors.New("x") })
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("zero policy: %d attempts, %d calls, err %v", attempts, calls, err)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	p := resilience.Policy{MaxAttempts: 5}
	calls := 0
	cause := errors.New("bad machine")
	_, err := p.Do(func() error {
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

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("anything"), true},
		{fmt.Errorf("recovered: %w", guard.ErrPanic), true},
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

func TestDefaultPolicyRetries(t *testing.T) {
	if got := resilience.DefaultPolicy(4).Retries(); got != 4 {
		t.Errorf("DefaultPolicy(4).Retries() = %d", got)
	}
	if got := (resilience.Policy{}).Retries(); got != 0 {
		t.Errorf("zero policy Retries() = %d", got)
	}
}
