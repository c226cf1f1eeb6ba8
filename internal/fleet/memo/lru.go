package memo

// A small generic bounded cache used twice by the fleet layer:
// internally by Memo to bound the result cache, and by internal/cli to
// bound the loaded model-artifact store for fleets that mix hundreds
// of artifacts (the ROADMAP's model-store LRU). It approximates LRU
// with CLOCK (second-chance) eviction, so a hit writes nothing shared
// but its entry's reference bit: Get is a lock-free sync.Map load plus
// that bit, and only Add takes the mutex. Inserts are
// first-writer-wins.
//
// The index is a sync.Map rather than a map under a sync.RWMutex
// because a read lock is itself a shared write: two workers taking it
// for every replayed device bounce its reader count between their
// cores, which made a contended hit slower than the mutex it replaced.

import (
	"sync"
	"sync/atomic"
)

// LRU is a bounded, concurrency-safe map with CLOCK eviction: entries
// sit in a ring of at most capacity slots, and a full Add sweeps the
// hand around the ring, clearing the reference bit of each entry read
// since the hand last passed it and evicting the first entry whose bit
// is already clear.
type LRU[K comparable, V any] struct {
	idx       sync.Map   // K -> *clockSlot[K, V]; written only under mu
	mu        sync.Mutex // serializes Add: the ring, the hand and evictions
	capacity  int
	ring      []*clockSlot[K, V]
	hand      int // next slot the sweep inspects
	evictions uint64
}

// clockSlot is one entry: key and value never change once published,
// so a reader holding an evicted slot still returns a valid value.
type clockSlot[K comparable, V any] struct {
	key K
	val V
	ref atomic.Bool // set by Get and by a duplicate Add, cleared by the sweep
}

// NewLRU returns a cache holding at most capacity entries (capacity
// < 1 is clamped to 1: a cache that can hold nothing would turn every
// Add into a silent drop).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{capacity: capacity}
}

// Get returns the value under k and marks the entry referenced.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	e, ok := l.idx.Load(k)
	if !ok {
		var zero V
		return zero, false
	}
	s := e.(*clockSlot[K, V])
	if !s.ref.Load() { // a hot entry's bit is already set: skip the store
		s.ref.Store(true)
	}
	return s.val, true
}

// Add inserts v under k unless the key is already present
// (first-writer-wins: racing fills keep the first value, so a cached
// entry never changes once readers may have replayed it; the existing
// entry is marked referenced instead). It reports whether the insert
// happened. A full cache evicts the entry the hand settles on.
func (l *LRU[K, V]) Add(k K, v V) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.idx.Load(k); ok {
		e.(*clockSlot[K, V]).ref.Store(true)
		return false
	}
	s := &clockSlot[K, V]{key: k, val: v}
	if len(l.ring) < l.capacity {
		l.ring = append(l.ring, s)
	} else {
		// One revolution clears every bit it passes. Readers may set
		// them again behind the hand, so after a whole revolution the
		// hand evicts where it stands, bit or not.
		for n := 0; n < l.capacity && l.ring[l.hand].ref.Swap(false); n++ {
			l.hand = (l.hand + 1) % l.capacity
		}
		l.idx.Delete(l.ring[l.hand].key)
		l.ring[l.hand] = s
		l.hand = (l.hand + 1) % l.capacity
		l.evictions++
	}
	l.idx.Store(k, s)
	return true
}

// Len returns the number of cached entries.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Capacity returns the configured bound.
func (l *LRU[K, V]) Capacity() int { return l.capacity }

// Evictions returns how many entries were dropped to make room.
func (l *LRU[K, V]) Evictions() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}
