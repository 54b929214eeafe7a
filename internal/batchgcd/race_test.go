//go:build race

package batchgcd

// raceEnabled: the race detector is on, and sync.Pool (math/big keeps
// its division scratch in one) drops a share of what is put back on
// purpose, so allocation counts do not hold.
const raceEnabled = true
