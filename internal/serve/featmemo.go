package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// The feature-vector memo fronts the serve hot path's parse + extract
// work: feature vectors depend only on the request body, never on the
// model, so they are keyed by body content hash alone and survive
// hot-swaps, promotions and arch routing. A repeat matrix therefore
// skips MatrixMarket parsing and feature extraction entirely, and the
// live model predicts from the memoized vector — so every answer comes
// from the model serving at that moment.
//
// Invalidation rules: there are none. The mapping body→features is
// immutable, so an entry is never flushed on model swap. Capacity
// pressure is the only evictor (LRU).

// featMemo is a goroutine-safe fixed-capacity LRU from body content
// hash to the extracted 21-feature vector, instrumented with
// resident-entry and approximate-footprint gauges.
type featMemo struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64

	entries *obs.Gauge
	footpr  *obs.Gauge
}

type featMemoEntry struct {
	key string
	val []float64
}

// featEntrySize approximates one entry's heap footprint: key bytes,
// vector payload, and fixed list/map overhead.
func featEntrySize(key string, vec []float64) int64 {
	return int64(len(key) + 8*len(vec) + 96)
}

// newFeatMemo returns a memo holding up to capacity entries; a
// non-positive capacity disables it (Enabled reports false, every Get
// misses, Put is a no-op).
func newFeatMemo(capacity int) *featMemo {
	return &featMemo{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		entries: obs.Default.Gauge("serve/featmemo/entries"),
		footpr:  obs.Default.Gauge("serve/featmemo/bytes"),
	}
}

// Enabled reports whether the memo stores anything at all, so the hot
// path can skip key derivation when it is configured off.
func (c *featMemo) Enabled() bool { return c != nil && c.cap > 0 }

// Get returns the memoized feature vector for key, marking it most
// recent. Callers must not modify the returned slice: concurrent hits
// share it.
func (c *featMemo) Get(key string) ([]float64, bool) {
	if !c.Enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*featMemoEntry).val, true
}

// Put stores the feature vector for key, evicting the least recently
// used entry when full. The memo keeps val, so the caller must not
// modify it afterwards. A key already present keeps its vector: both
// were extracted from the same body.
func (c *featMemo) Put(key string, val []float64) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&featMemoEntry{key: key, val: val})
	c.bytes += featEntrySize(key, val)
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		ent := oldest.Value.(*featMemoEntry)
		c.bytes -= featEntrySize(ent.key, ent.val)
		delete(c.items, ent.key)
	}
	c.export()
}

// Len returns the number of memoized entries.
func (c *featMemo) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the approximate resident footprint.
func (c *featMemo) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// export refreshes the gauges; callers hold mu.
func (c *featMemo) export() {
	c.entries.Set(float64(c.ll.Len()))
	c.footpr.Set(float64(c.bytes))
}
