//go:build race

package serve

// raceEnabled reports a race-detector build, whose runtime allocates on
// its own; allocation ceilings do not hold there.
const raceEnabled = true
