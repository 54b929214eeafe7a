package cluster

import "sync"

// memoCapacity bounds the router's memo: the replica verdict cache's
// default size (keycheck's CacheSize), so the router remembers as many
// final answers as one replica keeps verdicts.
const memoCapacity = 4096

// memo is the router's record of final answers, keyed by modulus hex: a
// home owner's verdict that the key is a corpus member and factored.
// Such a verdict cannot change while the router runs — member sets only
// grow, and a merge never rewrites a factored entry — so a repeat check
// of the key needs no replica. Every other verdict can change with an
// ingest or a sync and is never stored. Eviction is first in, first
// out: a hit moves nothing, so it takes only the read lock.
type memo struct {
	mu   sync.RWMutex
	byID map[string]RoutedVerdict
	ring []string // keys in insertion order; next is the slot put overwrites
	next int
}

func newMemo() *memo {
	return &memo{byID: make(map[string]RoutedVerdict)}
}

// get returns the stored answer for hex.
func (m *memo) get(hex string) (RoutedVerdict, bool) {
	m.mu.RLock()
	v, ok := m.byID[hex]
	m.mu.RUnlock()
	return v, ok
}

// put stores v for hex, evicting the oldest entry once the memo is full.
// A key already stored keeps its first answer: both are the same final
// verdict.
func (m *memo) put(hex string, v RoutedVerdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byID[hex]; ok {
		return
	}
	if len(m.ring) < memoCapacity {
		m.ring = append(m.ring, hex)
	} else {
		delete(m.byID, m.ring[m.next])
		m.ring[m.next] = hex
		m.next = (m.next + 1) % memoCapacity
	}
	m.byID[hex] = v
}
