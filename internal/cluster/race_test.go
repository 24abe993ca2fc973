//go:build race

package cluster

// raceEnabled reports that this test binary was built with -race. The
// race detector's sync.Pool implementation deliberately drops a
// fraction of Puts, so tests comparing allocation counts skip under it
// (mirrors internal/serve).
const raceEnabled = true
