//go:build race

package netmr

// raceEnabled: the race detector makes sync.Pool drop some of what it is
// given, so allocation counts mean nothing under it.
const raceEnabled = true
