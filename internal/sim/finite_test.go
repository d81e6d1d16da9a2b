package sim

import (
	"math"
	"reflect"
	"testing"
)

// Every way to schedule rejects NaN and ±Inf, as it rejects negative
// values: a non-finite time would carry the clock through NaN or to +Inf,
// and the event queue's ordering assumes finite times. The "At" cases give
// ScheduleStep an absolute time, before Run while the clock reads 0; the
// "After" cases give it a delay from a callback on a running clock; the
// "ScheduleStep" cases a delay from a process.
func TestNonFiniteTimesPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	nop := Step{Fn: func() {}}
	fromCallback := func(e *Engine, d float64) {
		e.ScheduleStep(1, Step{Fn: func() { e.ScheduleStep(d, nop) }})
		_ = e.Run()
	}
	fromProcess := func(e *Engine, d float64) {
		e.Spawn("p", func(*Proc) { e.ScheduleStep(d, nop) })
		_ = e.Run()
	}
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"At NaN", func(e *Engine) { e.ScheduleStep(nan, nop) }},
		{"At +Inf", func(e *Engine) { e.ScheduleStep(inf, nop) }},
		{"At -Inf", func(e *Engine) { e.ScheduleStep(-inf, nop) }},
		{"After NaN", func(e *Engine) { fromCallback(e, nan) }},
		{"After +Inf", func(e *Engine) { fromCallback(e, inf) }},
		{"After -Inf", func(e *Engine) { fromCallback(e, -inf) }},
		{"After overflow", func(e *Engine) {
			e.ScheduleStep(math.MaxFloat64, Step{Fn: func() { e.ScheduleStep(math.MaxFloat64, nop) }})
			_ = e.Run()
		}},
		{"ScheduleStep NaN", func(e *Engine) { fromProcess(e, nan) }},
		{"ScheduleStep +Inf", func(e *Engine) { fromProcess(e, inf) }},
		{"ScheduleStep -Inf", func(e *Engine) { fromProcess(e, -inf) }},
		{"Delay NaN", func(e *Engine) { e.Spawn("p", func(p *Proc) { p.Delay(nan) }); _ = e.Run() }},
		{"Delay +Inf", func(e *Engine) { e.Spawn("p", func(p *Proc) { p.Delay(inf) }); _ = e.Run() }},
		{"Delay -Inf", func(e *Engine) { e.Spawn("p", func(p *Proc) { p.Delay(-inf) }); _ = e.Run() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call(NewEngine())
		})
	}
}

// Finite delays fire in time order and a rejected NaN leaves the queue
// untouched: the clock never passes through NaN.
func TestMixedDelaysFireInOrder(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, d := range []float64{3, 1, math.NaN(), 2, 0.5, 4, 1.5} {
		func() {
			defer func() { _ = recover() }()
			e.ScheduleStep(d, Step{Fn: func() { fired = append(fired, e.Now()) }})
		}()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 1.5, 2, 3, 4}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// An absolute time of -0 is stored as +0, so it orders before every
// positive time and the clock never reads -0.
func TestAtNegativeZeroNormalised(t *testing.T) {
	e := NewEngine()
	var log []string
	e.ScheduleStep(1, Step{Fn: func() { log = append(log, "one") }})
	e.ScheduleStep(math.Copysign(0, -1), Step{Fn: func() {
		if math.Signbit(e.Now()) {
			t.Error("clock reads -0")
		}
		log = append(log, "zero")
	}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"zero", "one"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}
