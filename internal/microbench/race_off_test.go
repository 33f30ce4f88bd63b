//go:build !race

package microbench

// raceEnabled reports a race-detector build, which the full-scale tests skip.
const raceEnabled = false
