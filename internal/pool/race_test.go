//go:build race

package pool

// raceEnabled reports a -race build, whose instrumentation inflates heap
// byte counts.
const raceEnabled = true
