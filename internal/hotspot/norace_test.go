//go:build !race

package hotspot

const raceEnabled = false
