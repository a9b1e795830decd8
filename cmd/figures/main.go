// Command figures regenerates every table and figure of the paper's
// evaluation, plus the comparison and ablation experiments listed in
// DESIGN.md. Every run is deterministic in the seed; what it prints at seed 1
// with -quick is pinned byte for byte under internal/exp/testdata/figures.
//
// Usage:
//
//	figures -all                  # everything (the Table 1 / Figure 4 sweep takes minutes)
//	figures -fig 3                # one figure (1..6)
//	figures -table 1              # Table 1
//	figures -gran -ft -dib        # selected extra experiments
//	figures -seed 7               # change the deterministic seed
//	figures -quick                # Figure 4 at Table 1's processor counts only
package main

import (
	"flag"
	"fmt"
	"os"

	"gossipbnb/internal/exp"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "regenerate figure N (1..6)")
		table   = flag.Int("table", 0, "regenerate table N (1)")
		gran    = flag.Bool("gran", false, "granularity sweep (§6.3.1)")
		ft      = flag.Bool("ft", false, "fault-tolerance scenario matrix")
		dib     = flag.Bool("dib", false, "comparison with DIB (§5.5)")
		central = flag.Bool("central", false, "centralized manager-worker baseline (§3)")
		membr   = flag.Bool("member", false, "membership protocol under churn (§5.2)")
		ablate  = flag.String("ablation", "", "ablation: report, recovery, compress, select, or adaptive")
		diffb   = flag.Bool("diffbytes", false, "anti-entropy diff gossip vs full-frontier wire bytes")
		all     = flag.Bool("all", false, "run everything")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		quick   = flag.Bool("quick", false, "Figure 4 at Table 1's processor counts only")
	)
	flag.Parse()

	want := map[string]bool{
		fmt.Sprintf("fig%d", *fig):     true,
		fmt.Sprintf("table%d", *table): true,
		"gran":                         *gran,
		"ft":                           *ft,
		"dib":                          *dib,
		"central":                      *central,
		"member":                       *membr,
		"diffbytes":                    *diffb,
		"ablation-" + *ablate:          true,
	}
	r := &exp.Runner{Seed: *seed, Quick: *quick}
	ran := false
	for _, s := range exp.Sections() {
		if *all || want[s.Key] {
			fmt.Printf("\n=== %s ===\n\n", s.Title)
			s.Render(os.Stdout, r)
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
