//go:build race

package faults

// raceEnabled: the race detector's runtime allocates on its own account and
// makes sync.Pool drop items at random, so exact allocation counts are only
// asserted without it.
const raceEnabled = true
