//go:build race

package tcp

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts by design, so exact pool-hit allocation counts do not
// hold.
const raceEnabled = true
