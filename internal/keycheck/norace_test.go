//go:build !race

package keycheck

const raceEnabled = false
