// Quickstart: attach a LASER monitoring session to the paper's headline
// workload — linear_regression, whose lreg_args array falsely shares
// cache lines (Figure 2) — and watch detection plus automatic online
// repair happen, live, on the session's event stream.
package main

import (
	"fmt"
	"log"

	"repro/internal/workload"
	"repro/laser"
)

func main() {
	w, ok := workload.Get("linear_regression")
	if !ok {
		log.Fatal("workload not found")
	}

	// First: the program on its own.
	native, err := laser.RunNative(w.Build(workload.Options{}), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native run: %.2f ms simulated, %d HITM coherence events\n",
		native.Seconds()*1e3, native.HITMs())

	// Then: the same program under a LASER session, built with the heap
	// bias of the fork-based attach (laser.AttachBias); events stream
	// while the monitor works.
	img := w.Build(workload.Options{HeapBias: laser.AttachBias})
	s, err := laser.Attach(img)
	if err != nil {
		log.Fatal(err)
	}
	events := s.Events()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for e := range events {
			switch e.(type) {
			case laser.RepairTriggered, laser.RepairApplied, laser.EpochEnd:
				fmt.Println(" ", e)
			}
		}
	}()
	res, err := s.Wait()
	if err != nil {
		log.Fatal(err)
	}
	s.Close()
	<-drained

	fmt.Printf("under LASER: %.2f ms simulated (%.2fx of native)\n",
		res.Seconds*1e3, float64(res.Stats.Cycles)/float64(native.Cycles))
	if res.RepairApplied {
		fmt.Println("LASERREPAIR rewrote the contending loop to use the software store buffer —")
		fmt.Println("the run finished FASTER than native despite full monitoring.")
	}
	fmt.Println()
	fmt.Print(res.Report.Render())
	fmt.Println("\nThe padding fix (manual) for comparison:")
	fixed, err := laser.RunNative(w.Build(workload.Options{Variant: workload.Fixed}), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed run: %.2f ms — a %.1fx speedup over the buggy build\n",
		fixed.Seconds()*1e3, float64(native.Cycles)/float64(fixed.Cycles))
}
