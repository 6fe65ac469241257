package session

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBusy is returned by Pool.Admit when both the worker slots and the
// backlog are full — the signal the HTTP layer translates into
// 429 + Retry-After.
var ErrBusy = errors.New("session: pool at capacity")

// Pool is the server's admission and backpressure control, the same
// bounded-worker discipline experiment.Plan applies inside one run lifted
// to whole sessions: at most workers sessions execute at once, at most
// queue more wait in line, and everything beyond that is refused at
// admission time rather than silently piling up.
//
// A session reserves its admission slot at New (Admit), trades it for a
// worker slot when its run goroutine reaches the front (acquire), and
// frees both just before its terminal transition. A queued session that
// is stopped abandons the line without ever holding a worker.
type Pool struct {
	mu       sync.Mutex
	admitted int
	capacity int // workers + queue
	slots    chan struct{}
	retry    time.Duration
}

// NewPool builds a pool of workers executing slots with queue waiting
// positions behind them. retryAfter is the back-off hint served with
// ErrBusy refusals (0 = a 1s default).
func NewPool(workers, queue int, retryAfter time.Duration) (*Pool, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("session: pool workers %d, want > 0", workers)
	}
	if queue < 0 {
		return nil, fmt.Errorf("session: pool queue %d, want >= 0", queue)
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &Pool{
		capacity: workers + queue,
		slots:    make(chan struct{}, workers),
		retry:    retryAfter,
	}, nil
}

// Admit reserves an admission slot, ErrBusy when none is free. Every
// successful Admit must eventually be paired with one release (the
// session's terminal transition).
func (p *Pool) Admit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.admitted >= p.capacity {
		return ErrBusy
	}
	p.admitted++
	return nil
}

// RetryAfter is the wait hint to serve alongside an ErrBusy refusal.
func (p *Pool) RetryAfter() time.Duration { return p.retry }

// forfeit returns an admission slot without ever having held a worker —
// a session stopped before or while queued.
func (p *Pool) forfeit() {
	p.mu.Lock()
	p.admitted--
	p.mu.Unlock()
}

// acquire blocks until a worker slot frees up or stop closes; a stopped
// wait returns ErrStopped without holding a worker slot.
func (p *Pool) acquire(stop <-chan struct{}) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-stop:
		return ErrStopped
	}
}

// releaseWorker frees a held worker slot and the admission slot.
func (p *Pool) releaseWorker() {
	<-p.slots
	p.forfeit()
}
