package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventThroughput measures raw event dispatch (no processes):
// batches of 1,025 events all at one future instant.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 1; i <= b.N; i++ {
		e.ScheduleStep(1, Step{Fn: func() {}})
		if i%1025 == 0 {
			_ = e.Run()
		}
	}
	_ = e.Run()
}

// queueDelays are the most common event delays of the artifact workloads:
// a disk transfer, a message setup, a server overhead, a seek, a compute
// phase.
var queueDelays = [...]float64{1.5e-3, 0.7e-6, 4.2e-6, 73e-6, 42.5e-3}

// BenchmarkEventQueue measures the time queue at the depths the workloads
// hold (a mean of 2–30 pending events on the artifacts and 30–100 on
// serve-cold's largest points): depth callbacks each re-arm themselves
// with the next of queueDelays when they fire, so every op is one pop and
// one push at a constant depth.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			left, k := b.N, 0
			var hold func()
			arm := func() {
				k++
				e.ScheduleStep(queueDelays[k%len(queueDelays)], Step{Fn: hold})
			}
			hold = func() {
				if left > 0 {
					left--
					arm()
				}
			}
			for i := 0; i < depth; i++ {
				arm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkProcessHandoff measures one process delaying in a loop. Despite
// the name no control ever changes hands: the blocked process dispatches
// its own wake and continues (dispatchSelf), so this is the queue round
// trip of a Delay with no switch. BenchmarkCrossProcessHandoff measures the
// switch.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCrossProcessHandoff measures a real handoff: two processes
// alternate on the clock, so every wake moves control to the other one —
// a yield from the blocked process to the driver and a resume of the woken
// one.
func BenchmarkCrossProcessHandoff(b *testing.B) {
	e := NewEngine()
	n := b.N
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Delay(float64(i) / 2) // offset the pair by half a period
			for j := i; j < n; j += 2 {
				p.Delay(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures queued claim/release under 8
// contending processes.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	per := b.N/8 + 1
	for i := 0; i < 8; i++ {
		e.Spawn("u", func(p *Proc) {
			for j := 0; j < per; j++ {
				use(p, r, 1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantLane measures the zero-delay event path
// (ScheduleStep(0, …) from inside the instant), which takes the FIFO ring rather than the radix
// queue.
func BenchmarkSameInstantLane(b *testing.B) {
	e := NewEngine()
	n := b.N
	var chain func()
	chain = func() {
		if n--; n > 0 {
			e.ScheduleStep(0, Step{Fn: chain})
		}
	}
	e.ScheduleStep(0, Step{Fn: chain})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnJoin measures process churn: spawn a child, wait for it
// to exit. With pooled workers the steady state reuses
// one parked coroutine instead of starting one per child.
func BenchmarkSpawnJoin(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("root", func(p *Proc) {
		for i := 0; i < n; i++ {
			spawnDone(e, "c", func(c *Proc) {}).wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
