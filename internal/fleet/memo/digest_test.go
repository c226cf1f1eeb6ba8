package memo

import (
	"math/rand"
	"sync"
	"testing"

	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

func randomInput(rng *rand.Rand, n int) []fixed.Q15 {
	xs := make([]fixed.Q15, n)
	for i := range xs {
		xs[i] = fixed.Q15(rng.Intn(1 << 16))
	}
	return xs
}

// inputKey is the input half of d's Tier-1 key with d.Input = xs.
func inputKey(t *testing.T, xs []fixed.Q15) [32]byte {
	t.Helper()
	d := dev()
	d.Input = xs
	return probe(t, d).input
}

// TestInputDigestMatchesHashQ15: a fresh slice, a cached one, an
// empty one and one too long to cache all key on quant.HashQ15.
func TestInputDigestMatchesHashQ15(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 784, digestMaxWords, digestMaxWords + 1} {
		xs := randomInput(rng, n)
		want := quant.HashQ15(xs)
		for k := 0; k < 3; k++ {
			if got := inputKey(t, xs); got != want {
				t.Fatalf("%d words, probe %d: input key differs from quant.HashQ15", n, k)
			}
		}
	}
}

// TestInputDigestSeesInPlaceMutation: the cache is keyed by address,
// but a slice changed in place must key on its new words. An
// address-only cache would serve the stale digest here.
func TestInputDigestSeesInPlaceMutation(t *testing.T) {
	xs := randomInput(rand.New(rand.NewSource(2)), 784)
	before := inputKey(t, xs)
	for _, k := range []int{0, 391, 783} {
		xs[k]++
		after := inputKey(t, xs)
		if after == before {
			t.Fatalf("word %d changed in place, input key did not", k)
		}
		if after != quant.HashQ15(xs) {
			t.Fatalf("word %d changed in place: key differs from quant.HashQ15", k)
		}
		xs[k]--
		if got := inputKey(t, xs); got != before {
			t.Fatalf("word %d restored: key differs from the original", k)
		}
	}
	// A shorter view of the same backing array is another input.
	if inputKey(t, xs[:783]) != quant.HashQ15(xs[:783]) {
		t.Fatal("prefix view keyed as the whole slice")
	}
}

// TestInputDigestEqualCopy: equal words at another address give the
// same key.
func TestInputDigestEqualCopy(t *testing.T) {
	xs := randomInput(rand.New(rand.NewSource(3)), 784)
	ys := append([]fixed.Q15(nil), xs...)
	if &xs[0] == &ys[0] {
		t.Fatal("copy shares the backing array")
	}
	if inputKey(t, xs) != inputKey(t, ys) {
		t.Fatal("equal inputs at different addresses got different keys")
	}
}

// TestInputDigestBounded: more distinct live inputs than the cache
// holds leave it within its entry bound, with no entry longer than
// digestMaxWords, and every key still correct.
func TestInputDigestBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inputs := make([][]fixed.Q15, 3*digestSlots)
	for i := range inputs {
		inputs[i] = randomInput(rng, 16+i%64)
	}
	inputs = append(inputs, randomInput(rng, 4*digestMaxWords))
	for pass := 0; pass < 2; pass++ {
		for i, xs := range inputs {
			if inputKey(t, xs) != quant.HashQ15(xs) {
				t.Fatalf("pass %d, input %d: wrong key", pass, i)
			}
		}
	}
	entries := 0
	for k := range inputDigests {
		if e := inputDigests[k].Load(); e != nil {
			entries++
			if len(e.words) > 2*digestMaxWords {
				t.Fatalf("entry %d holds %d bytes, bound %d", k, len(e.words), 2*digestMaxWords)
			}
		}
	}
	if entries == 0 || entries > digestSlots {
		t.Fatalf("%d cached entries, want 1..%d", entries, digestSlots)
	}
}

// TestInputDigestConcurrent: workers probing shared inputs while
// each mutates a private one all get quant.HashQ15's keys (run under
// -race).
func TestInputDigestConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shared := make([][]fixed.Q15, 8)
	want := make([][32]byte, len(shared))
	for i := range shared {
		shared[i] = randomInput(rng, 784)
		want[i] = quant.HashQ15(shared[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		own := randomInput(rand.New(rand.NewSource(int64(100+g))), 784)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 400; k++ {
				i := (g + k) % len(shared)
				d := dev()
				d.Input = shared[i]
				p, ok := NewProbe(d)
				if !ok || p.input != want[i] {
					errs <- "shared input keyed wrong"
					return
				}
				own[k%len(own)]++
				d.Input = own
				if p, _ := NewProbe(d); p.input != quant.HashQ15(own) {
					errs <- "mutated private input keyed wrong"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
