package rpc

import (
	"container/list"
	"sync"

	"forkwatch/internal/types"
)

// respCache is a route's response cache: one generation-tagged LRU over
// marshalled results, keyed by Request.CacheKey — which begins with the
// method name, so methods share the cache without sharing keys. It is
// bounded twice: by an entry count and by the bytes of its keys plus
// results, so a client walking distinct large answers (difficulty
// windows) evicts entries instead of growing the process. A result too
// large for a sixteenth of the byte budget is answered but never stored:
// holding it would evict most of the working set for one answer.
//
// Every entry is tagged with the generation — the head block's hash —
// current when it was filled. Lookups require an exact generation match,
// so any head change, an advance or a reorg to a sibling at the same
// height, makes every prior entry unreachable at once; stale answers age
// out through normal LRU eviction. This is what makes it safe to cache
// even eth_blockNumber: a request that starts after a block commit
// observes the new generation and can only miss.
type respCache struct {
	mu       sync.Mutex
	maxItems int
	maxBytes int
	bytes    int        // keys plus results held
	order    *list.List // front = most recent
	items    map[string]*list.Element
}

type cacheEntry struct {
	key    string
	gen    types.Hash
	result []byte // marshalled JSON result
}

func (e *cacheEntry) size() int { return len(e.key) + len(e.result) }

// newRespCache returns an LRU holding up to maxItems entries and maxBytes
// bytes of keys plus results.
func newRespCache(maxItems, maxBytes int) *respCache {
	return &respCache{
		maxItems: maxItems,
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached result for (key, gen), if present.
func (c *respCache) get(key string, gen types.Hash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		// A head change outdated this entry; drop it eagerly so its
		// bytes are reusable immediately.
		c.remove(el)
		return nil, false
	}
	c.order.MoveToFront(el)
	return ent.result, true
}

// put stores a result under (key, gen), evicting least recently used
// entries until both bounds hold. An oversized result replaces nothing:
// it drops the key's older entry and is not stored.
func (c *respCache) put(key string, gen types.Hash, result []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	if len(key)+len(result) > c.maxBytes/16 {
		return
	}
	ent := &cacheEntry{key: key, gen: gen, result: result}
	c.items[key] = c.order.PushFront(ent)
	c.bytes += ent.size()
	for c.order.Len() > c.maxItems || c.bytes > c.maxBytes {
		c.remove(c.order.Back())
	}
}

// remove drops one entry. Caller holds c.mu.
func (c *respCache) remove(el *list.Element) {
	ent := c.order.Remove(el).(*cacheEntry)
	delete(c.items, ent.key)
	c.bytes -= ent.size()
}

// stats returns the live entry count and the bytes they hold (for
// metrics).
func (c *respCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
