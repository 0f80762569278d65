//go:build !race

package overbook

const raceEnabled = false
