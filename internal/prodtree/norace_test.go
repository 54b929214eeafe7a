//go:build !race

package prodtree

const raceEnabled = false
