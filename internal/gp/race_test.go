//go:build race

package gp

// raceEnabled reports a -race build, whose runtime allocates on its own
// account, so byte counts read from runtime.MemStats are not exact.
const raceEnabled = true
