//go:build race

package overbook

// raceEnabled reports that the tests run under the race detector, where
// sync.Pool drops items at random and exact allocation counts do not hold.
const raceEnabled = true
