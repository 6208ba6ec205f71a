//go:build !race

package ftl

// raceEnabled reports a -race build, whose instrumentation inflates heap
// byte counts.
const raceEnabled = false
