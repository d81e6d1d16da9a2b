package serve

import (
	"context"
	"sync"
)

// flightGroup collapses concurrent calls for the same key into one
// execution: the first caller (the leader) runs fn; callers that arrive
// while it is in flight wait and share its outcome. Keyed by the same
// content address as the cache, it keeps a thundering herd of identical
// requests from occupying more than one worker.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

// Do returns fn's result for key, executing it at most once across
// concurrent callers. leader reports whether this caller executed fn. A
// follower whose ctx ends first abandons the wait with ctx's error; the
// leader's execution (and any cache fill) continues unaffected.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.body, c.err, false
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.body, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, c.err, true
}
