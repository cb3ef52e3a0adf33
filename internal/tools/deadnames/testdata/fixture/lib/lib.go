// Package lib holds one case of each rule the dead-name check applies.
package lib

import "fmt"

// TestOnly is called only from lib_test.go: flagged.
func TestOnly() int { return 1 }

// Unused has no caller at all: flagged.
func Unused() {}

// Used is called by main, so an allowlist entry naming it is stale.
func Used() int { return 2 }

// Seam is called only by tests, and the allowlist names it: not flagged.
func Seam() {}

// ForBench is called only by the bench module: not flagged.
func ForBench() {}

// Celsius reaches fmt, which calls String through fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%gC", float64(c)) }

// Failure is an error; nothing calls Error by name.
type Failure struct{}

func (Failure) Error() string { return "failure" }

// Counter's hits is only written: flagged. total is read.
type Counter struct {
	hits  int
	total int
}

// Add counts one event.
func (c *Counter) Add() {
	c.hits++
	c.total++
}

// Total returns the events counted.
func (c *Counter) Total() int { return c.total }

// key is a map key: hashing reads its fields.
type key struct{ a, b int }

var index = map[key]int{}

// Put counts one pair.
func Put(a, b int) { index[key{a, b}]++ }
