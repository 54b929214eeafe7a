package keycheck

import (
	"container/list"
	"sync"
)

// verdictCache is a fixed-capacity LRU over modulus-key → Verdict. The
// serving workload is heavy-tailed — the same embedded device keys are
// checked over and over — so a small cache absorbs most of the GCD
// path. Each entry carries the generation of the snapshot it was
// computed against, and a probe under any other generation misses and
// evicts it: a swap (the verdict may change when new results fold in)
// invalidates every older entry without touching the cache, including
// one a check straddling the swap inserts after it.
type verdictCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	gen uint64
	v   Verdict
}

// newVerdictCache returns a cache holding up to max verdicts; max <= 0
// returns nil, and a nil cache never hits.
func newVerdictCache(max int) *verdictCache {
	if max <= 0 {
		return nil
	}
	return &verdictCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached verdict for key, provided it was computed
// against snapshot generation wantGen. A generation mismatch — an entry
// raced in around a swap — evicts the entry and misses.
func (c *verdictCache) get(key string, wantGen uint64) (Verdict, bool) {
	if c == nil {
		return Verdict{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return Verdict{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != wantGen {
		c.ll.Remove(el)
		delete(c.items, key)
		return Verdict{}, false
	}
	c.ll.MoveToFront(el)
	return e.v, true
}

// put caches v as computed against snapshot generation gen.
func (c *verdictCache) put(key string, gen uint64, v Verdict) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.gen, e.v = gen, v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, v: v})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *verdictCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
