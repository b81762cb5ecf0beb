//go:build race

package experiments

// raceEnabled reports whether the test binary runs under the race detector,
// where the whole-evaluation golden would take tens of minutes.
const raceEnabled = true
