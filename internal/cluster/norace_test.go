//go:build !race

package cluster

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
