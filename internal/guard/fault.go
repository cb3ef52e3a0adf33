package guard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPanic marks errors produced by recovering a panic at an isolation
// boundary. errors.Is(err, guard.ErrPanic) distinguishes a crash converted
// to an error from an ordinary failure.
var ErrPanic = errors.New("recovered panic")

// PanicError carries a recovered panic value.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap ties every PanicError to the ErrPanic sentinel.
func (e *PanicError) Unwrap() error { return ErrPanic }

// Recover converts an in-flight panic into an error assigned to *err,
// prefixed for attribution. Use it deferred at isolation boundaries:
//
//	defer guard.Recover(&err, "explore: variant %d", i)
//
// If no panic is in flight, or *err is already set and no panic occurred,
// it does nothing. The original panic value and stack stay reachable via
// errors.As with *PanicError.
func Recover(err *error, format string, args ...any) {
	r := recover()
	if r == nil {
		return
	}
	pe := &PanicError{Value: r}
	*err = fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), pe)
}

// faultArmed counts currently armed fault points; the zero fast path keeps
// Hit free in production (one atomic load, no lock).
var (
	faultArmed  atomic.Int32
	faultMu     sync.Mutex
	faultPoints map[string]func(detail string)
)

// Hit triggers the named fault point with a detail string (a block ID, a
// machine name — whatever identifies the unit being processed). It is a
// no-op unless a test armed the point with Arm; production code sprinkles
// Hit calls at isolation boundaries so tests can inject failures exactly
// where a real fault would surface.
func Hit(point, detail string) {
	if faultArmed.Load() == 0 {
		return
	}
	faultMu.Lock()
	fn := faultPoints[point]
	faultMu.Unlock()
	if fn != nil {
		fn(detail)
	}
}

// Arm installs fn at the named fault point and returns a disarm function.
// fn runs on whatever goroutine Hits the point and may panic (to test
// panic isolation), block, or cancel a context (to test cancellation).
// Tests must call the returned disarm (usually via t.Cleanup).
func Arm(point string, fn func(detail string)) (disarm func()) {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faultPoints == nil {
		faultPoints = make(map[string]func(string))
	}
	if _, dup := faultPoints[point]; dup {
		panic(fmt.Sprintf("guard: fault point %q armed twice", point))
	}
	faultPoints[point] = fn
	faultArmed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			faultMu.Lock()
			defer faultMu.Unlock()
			delete(faultPoints, point)
			faultArmed.Add(-1)
		})
	}
}
