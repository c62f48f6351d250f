package laser_test

import (
	"fmt"

	"repro/internal/workload"
	"repro/laser"
)

// ExampleAttach monitors the paper's headline workload with a session:
// attach to the built image, wait for completion, inspect the result.
func ExampleAttach() {
	w, _ := workload.Get("linear_regression")
	img := w.Build(workload.Options{Scale: 0.6, HeapBias: laser.AttachBias})

	s, err := laser.Attach(img, laser.WithSAV(19), laser.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("repaired:", res.RepairApplied)
	fmt.Println("epochs:", len(res.Epochs))
	fmt.Println("first epoch ended in repair:", res.Epochs[0].Repaired)
	// Output:
	// repaired: true
	// epochs: 2
	// first epoch ended in repair: true
}

// ExampleAttach_options shows option validation: invalid values are
// rejected at attach time instead of being silently coerced.
func ExampleAttach_options() {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.1})

	_, err := laser.Attach(img, laser.WithCores(-2))
	fmt.Println(err)

	_, err = laser.Attach(img, laser.WithSAV(0))
	fmt.Println(err)
	// Output:
	// laser: Cores (core count) must be in [1,64], got -2
	// laser: PEBS.SAV (sample-after value) must be positive, got 0
}

// ExampleSession_Events streams typed events while the monitor works.
func ExampleSession_Events() {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.5, HeapBias: laser.AttachBias})

	s, err := laser.Attach(img, laser.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	events := s.Events()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batches, repairs int
		for e := range events {
			switch e.(type) {
			case laser.SampleBatch:
				batches++
			case laser.RepairApplied:
				repairs++
			}
		}
		fmt.Println("saw sample batches:", batches > 0)
		fmt.Println("repairs applied:", repairs)
	}()
	if _, err := s.Wait(); err != nil {
		fmt.Println(err)
		return
	}
	s.Close()
	<-done
	// Output:
	// saw sample batches: true
	// repairs applied: 1
}
