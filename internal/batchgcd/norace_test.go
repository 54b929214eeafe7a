//go:build !race

package batchgcd

const raceEnabled = false
