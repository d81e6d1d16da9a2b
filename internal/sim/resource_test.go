package sim

import (
	"testing"
	"testing/quick"
)

// use is the serve-one-request pattern as a process does it: claim r with
// p's own wake, hold the unit d seconds, release it.
func use(p *Proc, r *Resource, d float64) {
	if !r.Claim(Step{P: p}) {
		p.Suspend()
	}
	p.Delay(d)
	r.Release()
}

// holdFor is the claim continuation a device uses: once granted, the unit
// is released by an event d seconds later. A claim granted at once runs it
// inline.
func holdFor(e *Engine, r *Resource, d float64) Step {
	release := Step{Fn: r.Release}
	return Step{Fn: func() { e.ScheduleStep(d, release) }}
}

func TestResourceSerializesAtCapacityOne(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			use(p, r, 2)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelismAtCapacityN(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disks", 3)
	var finish []float64
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			use(p, r, 2)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if f != 2 {
			t.Fatalf("finish = %v, want all 2", finish)
		}
	}
}

// TestResourceFIFOOrder: claims are granted in arrival order whatever
// their kind. Each arrival is an event chain holding its unit for a
// second through a release event, except the third, a process.
func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "q", 1)
	var order []string
	names := []string{"first", "second", "third", "fourth"}
	for i, n := range names {
		n := n
		at := float64(i) * 0.001 // arrive in name order
		if n == "third" {
			e.Spawn(n, func(p *Proc) {
				p.Delay(at)
				if !r.Claim(Step{P: p}) {
					p.Suspend()
				}
				order = append(order, n)
				p.Delay(1)
				r.Release()
			})
			continue
		}
		release := Step{Fn: r.Release}
		grant := Step{Fn: func() {
			order = append(order, n)
			e.ScheduleStep(1, release)
		}}
		e.ScheduleStep(at, Step{Fn: func() {
			if r.Claim(grant) {
				grant.Fn()
			}
		}})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if order[i] != names[i] {
			t.Fatalf("order = %v, want %v", order, names)
		}
	}
	if e.Now() != 4 {
		t.Fatalf("makespan = %g, want 4", e.Now())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on idle resource did not panic")
		}
	}()
	r.Release()
}

// TestResourceWaitAccounting: the wait of every claim, process or event
// chain, is accounted when it is granted.
func TestResourceWaitAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 2; i++ {
		e.Spawn("u", func(p *Proc) { use(p, r, 3) })
	}
	hold := holdFor(e, r, 3)
	e.ScheduleStep(0, Step{Fn: func() {
		if r.Claim(hold) {
			hold.Fn()
		}
	}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The first process is served at once; the second queues 3 s behind
	// it, and the chain, arriving last, 6 s.
	if w := r.TotalWait(); w != 9 {
		t.Fatalf("TotalWait = %g, want 9", w)
	}
}

// Property: for any number of jobs with unit service on a capacity-1
// resource, total makespan equals the number of jobs (work conservation).
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(njobs uint8) bool {
		n := int(njobs%32) + 1
		e := NewEngine()
		r := NewResource(e, "r", 1)
		var last float64
		for i := 0; i < n; i++ {
			e.Spawn("j", func(p *Proc) {
				use(p, r, 1)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return last == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan with capacity c and n unit jobs is ceil(n/c).
func TestResourceCapacityMakespanProperty(t *testing.T) {
	f := func(njobs, caps uint8) bool {
		n := int(njobs%40) + 1
		c := int(caps%8) + 1
		e := NewEngine()
		r := NewResource(e, "r", c)
		var last float64
		for i := 0; i < n; i++ {
			e.Spawn("j", func(p *Proc) {
				use(p, r, 1)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := float64((n + c - 1) / c)
		return last == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
