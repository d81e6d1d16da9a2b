package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCollapsesIdentical launches many concurrent calls for one key
// and verifies exactly one execution, with every caller seeing its result.
func TestFlightCollapsesIdentical(t *testing.T) {
	var g flightGroup
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func() ([]byte, error) {
		execs.Add(1)
		close(started)
		<-release
		return []byte("result"), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	var leaders, followers atomic.Int64
	// The leader enters first and blocks in fn; followers join after.
	go func() {
		<-started
		time.Sleep(5 * time.Millisecond) // let followers enqueue
		close(release)
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err, leader := g.Do(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
				return
			}
			if string(body) != "result" {
				t.Errorf("body = %q", body)
			}
			if leader {
				leaders.Add(1)
			} else {
				followers.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	if n := leaders.Load(); n != 1 {
		t.Fatalf("%d leaders, want 1", n)
	}
	if n := followers.Load(); n != callers-1 {
		t.Fatalf("%d followers, want %d", n, callers-1)
	}
}

// TestFlightDistinctKeysRunIndependently verifies no false sharing across
// keys.
func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var g flightGroup
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err, _ := g.Do(context.Background(), key, func() ([]byte, error) {
				execs.Add(1)
				return []byte(key), nil
			})
			if err != nil || string(body) != key {
				t.Errorf("key %s: body %q err %v", key, body, err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != 8 {
		t.Fatalf("execs = %d, want 8", n)
	}
}

// TestFlightFollowerCtxCancel verifies a follower abandons the wait with
// its own context error while the leader's execution completes untouched.
func TestFlightFollowerCtxCancel(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		body, err, leader := g.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
		if !leader || err != nil || string(body) != "late" {
			t.Errorf("leader: body %q err %v leader %v", body, err, leader)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	_, err, leader := g.Do(ctx, "k", func() ([]byte, error) {
		t.Error("follower executed fn")
		return nil, nil
	})
	if leader || !errors.Is(err, context.Canceled) {
		t.Fatalf("follower: err %v leader %v, want context.Canceled follower", err, leader)
	}
	close(release)
	<-leaderDone
}

// TestFlightSequentialCallsRerun verifies the key is forgotten once a call
// completes: singleflight is not a cache.
func TestFlightSequentialCallsRerun(t *testing.T) {
	var g flightGroup
	var execs int
	for i := 0; i < 3; i++ {
		_, err, leader := g.Do(context.Background(), "k", func() ([]byte, error) {
			execs++
			return nil, nil
		})
		if err != nil || !leader {
			t.Fatalf("call %d: err %v leader %v", i, err, leader)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3", execs)
	}
}
