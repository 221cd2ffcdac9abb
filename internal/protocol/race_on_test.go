//go:build race

package protocol_test

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so pooled engine state is rebuilt on some runs.
const raceEnabled = true
