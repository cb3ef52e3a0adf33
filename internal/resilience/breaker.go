package resilience

import "sync"

// Breaker is a per-class circuit breaker. A class is any string the
// caller uses to bucket failures that share a deterministic cause — the
// explore engine uses the failure kind (validation, panic, timeout, ...),
// so a grid full of variants that all die the same way stops burning its
// retry budget after the first few.
//
// Semantics: Failure(class) increments the class's failure count; once it
// reaches Threshold the class is open and Allow(class) reports false for
// the breaker's lifetime. Successes are not recorded, so the count is of
// all failures of the class, not of consecutive ones. That suits a finite
// batch sweep, where an open class means a deterministic fault the
// operator fixes before rerunning.
type Breaker struct {
	// Threshold is the number of failures per class that opens the
	// circuit. Values < 1 mean the default of 3.
	Threshold int

	mu    sync.Mutex
	fails map[string]int
}

// NewBreaker returns a breaker that opens a class after threshold
// failures (threshold < 1 selects the default of 3) and, once open, keeps
// it open for the breaker's lifetime.
func NewBreaker(threshold int) *Breaker {
	return &Breaker{Threshold: threshold}
}

func (b *Breaker) threshold() int {
	if b.Threshold < 1 {
		return 3
	}
	return b.Threshold
}

// Allow reports whether work of the given class should still be
// attempted (or retried). A nil breaker allows everything.
func (b *Breaker) Allow(class string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails[class] < b.threshold()
}

// Failure records one failure of the class and reports whether this
// failure tripped the circuit open.
func (b *Breaker) Failure(class string) (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails[class] >= b.threshold() {
		return false
	}
	if b.fails == nil {
		b.fails = make(map[string]int)
	}
	b.fails[class]++
	return b.fails[class] == b.threshold()
}
