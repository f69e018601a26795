//go:build race

package store_test

// raceEnabled reports that the race detector is instrumenting this build;
// allocation assertions are meaningless there.
const raceEnabled = true
