//go:build !race

package netmr

const raceEnabled = false
