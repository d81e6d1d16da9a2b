package sim

import (
	"math"
	"reflect"
	"testing"
)

// Every entry point that takes a time or a delay rejects NaN and ±Inf, as it
// rejects negative values: a non-finite time would carry the clock through
// NaN or to +Inf, and the event queue's ordering assumes finite times.
func TestNonFiniteTimesPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"At NaN", func(e *Engine) { e.At(nan, func() {}) }},
		{"At +Inf", func(e *Engine) { e.At(inf, func() {}) }},
		{"At -Inf", func(e *Engine) { e.At(-inf, func() {}) }},
		{"After NaN", func(e *Engine) { e.After(nan, func() {}) }},
		{"After +Inf", func(e *Engine) { e.After(inf, func() {}) }},
		{"After -Inf", func(e *Engine) { e.After(-inf, func() {}) }},
		{"After overflow", func(e *Engine) {
			e.After(math.MaxFloat64, func() { e.After(math.MaxFloat64, func() {}) })
			_ = e.Run()
		}},
		{"ScheduleStep NaN", func(e *Engine) { e.ScheduleStep(nan, Step{Fn: func() {}}) }},
		{"ScheduleStep +Inf", func(e *Engine) { e.ScheduleStep(inf, Step{Fn: func() {}}) }},
		{"ScheduleStep -Inf", func(e *Engine) { e.ScheduleStep(-inf, Step{Fn: func() {}}) }},
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
			e.After(d, func() { fired = append(fired, e.Now()) })
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

// At(-0) is stored as +0, so it orders before every positive time and the
// clock never reads -0.
func TestAtNegativeZeroNormalised(t *testing.T) {
	e := NewEngine()
	var log []string
	e.After(1, func() { log = append(log, "one") })
	e.At(math.Copysign(0, -1), func() {
		if math.Signbit(e.Now()) {
			t.Error("clock reads -0")
		}
		log = append(log, "zero")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"zero", "one"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}
