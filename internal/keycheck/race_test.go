//go:build race

package keycheck

// raceEnabled: the race detector is on, and sync.Pool drops a share of
// what is put back on purpose, so allocation budgets do not hold.
const raceEnabled = true
