//go:build !race

package catalog

// raceEnabled reports a race-detector build, which the full-scale tests skip.
const raceEnabled = false
