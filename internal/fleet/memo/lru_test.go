package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// cached reports whether k is in l without marking it referenced.
func cached[K comparable, V any](l *LRU[K, V], k K) bool {
	_, ok := l.idx.Load(k)
	return ok
}

// TestLRUClockSecondChance: an entry read since the hand last passed
// survives one sweep with its bit cleared; an unread one is evicted,
// and so is the survivor when the hand comes round again unread.
func TestLRUClockSecondChance(t *testing.T) {
	l := NewLRU[string, int](3)
	for k, key := range []string{"a", "b", "c"} {
		l.Add(key, k)
	}
	l.Get("a")
	l.Get("c")
	l.Add("d", 3) // clears a, evicts b
	if cached(l, "b") || !cached(l, "a") || !cached(l, "c") || !cached(l, "d") {
		t.Fatal("first sweep: want b evicted and a, c, d kept")
	}
	l.Add("e", 4) // clears c, evicts a: its bit went in the first sweep
	if cached(l, "a") || !cached(l, "c") || !cached(l, "d") || !cached(l, "e") {
		t.Fatal("second sweep: want a evicted and c, d, e kept")
	}
	if l.Len() != 3 || l.Evictions() != 2 {
		t.Fatalf("len %d evictions %d, want 3 and 2", l.Len(), l.Evictions())
	}
}

// TestLRUAddExistingReferences: a duplicate Add keeps the first value,
// returns false, and marks the entry referenced, so the next sweep
// passes over it.
func TestLRUAddExistingReferences(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Add("x", 1)
	l.Add("y", 2)
	if l.Add("x", 99) {
		t.Fatal("duplicate Add reported an insert")
	}
	l.Add("z", 3)
	if cached(l, "y") || !cached(l, "x") {
		t.Fatal("want y evicted and the re-added x kept")
	}
	if v, _ := l.Get("x"); v != 1 {
		t.Fatalf("x = %d, want the first value 1", v)
	}
}

// TestLRUConcurrentEvictions: under concurrent Get and Add over more
// keys than fit, Len never exceeds the capacity, and every insert
// either filled a free slot or evicted: Evictions = inserts - Len.
func TestLRUConcurrentEvictions(t *testing.T) {
	const capacity = 32
	l := NewLRU[int, int](capacity)
	var inserts atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g*13) % 100
				if v, ok := l.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				if l.Add(k, k) {
					inserts.Add(1)
				}
				if n := l.Len(); n > capacity {
					t.Errorf("Len reached %d, capacity %d", n, capacity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := l.Evictions(), inserts.Load()-uint64(l.Len()); got != want {
		t.Fatalf("%d evictions, want inserts - len = %d", got, want)
	}
}
