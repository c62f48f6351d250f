// Command characterize reproduces the §3.1 HITM characterization: 160
// two-thread assembly test cases measuring how accurately the simulated
// Haswell PEBS hardware reports the data address and PC of contention
// (Figure 3 of the paper).
//
// Usage:
//
//	characterize [-cases] [-cat TSRW|FSRW|TSWW|FSWW]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	showCases := flag.Bool("cases", false, "print every test case, not just category summaries")
	cat := flag.String("cat", "", "restrict per-case output to one category (TSRW, FSRW, TSWW, FSWW)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "characterize: unexpected argument %q: characterize takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}

	cases, sums, err := experiments.RunFigure3()
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
	if *showCases || *cat != "" {
		fmt.Printf("%-6s %-7s %10s %10s %10s %8s\n",
			"cat", "variant", "addr-ok%", "pc-exact%", "pc-adj%", "records")
		for _, c := range cases {
			if *cat != "" && string(c.Category) != *cat {
				continue
			}
			fmt.Printf("%-6s %-7d %10.1f %10.1f %10.1f %8d\n",
				c.Category, c.Variant, 100*c.AddrOK, 100*c.PCExact, 100*c.PCAdjacent, c.Records)
		}
		fmt.Println()
	}
	fmt.Print(experiments.RenderFigure3(sums))
}
