//go:build race

package pipeline

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the objects put back, so pooled-scratch allocation counts are not
// fixed there.
const raceEnabled = true
