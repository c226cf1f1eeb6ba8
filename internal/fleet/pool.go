package fleet

// WorkerPool is a slot semaphore shared by concurrent RunStream
// calls: the fleet service runs many sweeps at once, and the pool is
// what keeps their combined simulation concurrency bounded by one
// process-wide budget instead of workers × jobs.
//
// Slots gate simulation only. A RunStream worker acquires a slot,
// simulates one chunk of devices, and releases the slot before handing
// the chunk to its run's committer, so every held slot is doing
// simulation work and the pool drains no matter how many runs share
// it.

import (
	"context"
	"runtime"
)

// WorkerPool bounds simulation concurrency across any number of
// concurrent RunStream calls (StreamOptions.Pool).
type WorkerPool struct {
	sem chan struct{}
}

// NewWorkerPool returns a pool of n slots (n <= 0: GOMAXPROCS).
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{sem: make(chan struct{}, n)}
}

// Size is the pool's slot count.
func (p *WorkerPool) Size() int { return cap(p.sem) }

// InUse is the number of currently held slots. It is inherently
// racy against concurrent acquire/release; use it for metrics and
// for asserting quiescence (no runs in flight).
func (p *WorkerPool) InUse() int { return len(p.sem) }

// acquire takes a slot, giving up when ctx is cancelled or the run
// aborts. It reports whether the slot was acquired.
func (p *WorkerPool) acquire(ctx context.Context, abort <-chan struct{}) bool {
	select {
	case p.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	case <-abort:
		return false
	}
}

// Release returns a slot taken by acquire.
func (p *WorkerPool) Release() { <-p.sem }
