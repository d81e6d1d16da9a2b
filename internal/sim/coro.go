//go:build go1.23

package sim

import "iter"

// resume switches to w's coroutine and returns when it yields or ends. The
// coroutine is started on first use, so a process that never runs (spawned
// on an engine that is dropped before Run) costs no goroutine.
func (e *Engine) resume(w *worker) {
	if w.next == nil {
		w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
			w.yield = yield
			e.workerLoop(w)
		})
	}
	w.next()
}
