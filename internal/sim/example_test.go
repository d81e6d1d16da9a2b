package sim_test

import (
	"fmt"

	"pario/internal/sim"
)

// Example shows the kernel's shape: requests contending for a resource
// as event chains. Each claims the disk with a continuation that holds it
// for 2 s, through a release event; a request that finds the disk busy
// queues, and its continuation runs when the unit is handed over.
func Example() {
	eng := sim.NewEngine()
	disk := sim.NewResource(eng, "disk", 1)
	for i := 0; i < 3; i++ {
		i := i
		done := sim.Step{Fn: func() {
			disk.Release()
			fmt.Printf("writer%d finished at t=%g\n", i, eng.Now())
		}}
		serve := sim.Step{Fn: func() { eng.ScheduleStep(2.0, done) }}
		if disk.Claim(serve) {
			serve.Fn() // the disk was idle: serve at once
		}
	}
	if err := eng.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// writer0 finished at t=2
	// writer1 finished at t=4
	// writer2 finished at t=6
}
