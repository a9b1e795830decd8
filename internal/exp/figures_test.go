package exp

// The paper's evaluation as byte-exact goldens. Every simulated run is a pure
// function of its seed, so what cmd/figures prints at seed 1 with -quick is
// pinned section by section under testdata/figures/<key>.txt. A change that
// moves a row fails here and names the first line that moved; a change meant
// to move rows re-pins them with
//
//	go test ./internal/exp -run Figures -update
//
// and the diff of testdata/figures is then the change's before → after for
// the paper's tables. The files are pinned on amd64; an architecture that
// fuses multiply-adds may round a simulated time differently.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures from this run")

// allocCeiling holds each section's heap allocations (regeneration and
// rendering together) to 1.5× what it made when the ceiling was set. The
// static figures and quick Figure 4, which reuses Table 1's rows, have none.
var allocCeiling = map[string]uint64{
	"fig3":              103_000,
	"table1":            3_260_000,
	"fig5":              1_900,
	"fig6":              2_800,
	"gran":              84_000,
	"ft":                18_700,
	"dib":               18_600,
	"central":           301_000,
	"member":            325_000,
	"diffbytes":         1_001_000,
	"ablation-report":   134_000,
	"ablation-recovery": 1_866_000,
	"ablation-compress": 75_000,
	"ablation-select":   12_000,
	"ablation-adaptive": 95_200,
}

// heavy sections run the large problem (≈79,600 nodes) at five processor
// counts, about 17 s; -short skips them.
var heavy = map[string]bool{"table1": true, "fig4": true}

func TestFiguresMatchTestdata(t *testing.T) {
	r := &Runner{Seed: 1, Quick: true}
	for _, s := range Sections() {
		t.Run(s.Key, func(t *testing.T) {
			if heavy[s.Key] && testing.Short() {
				t.Skip("the large problem's sweep")
			}
			var got bytes.Buffer
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Render(&got, r)
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%d allocations", allocs)

			path := filepath.Join("testdata", "figures", s.Key+".txt")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if line, g, w := firstDiff(got.String(), string(want)); line > 0 {
				t.Errorf("%s differs from the regenerated section at line %d:\n got: %q\nwant: %q",
					path, line, g, w)
			}
			if max := allocCeiling[s.Key]; max > 0 && allocs > max {
				t.Errorf("section allocated %d times, ceiling %d", allocs, max)
			}
		})
	}
}

// firstDiff returns the 1-based number of the first line where got and want
// differ, and both lines there ("" past the end); 0 if they are equal.
func firstDiff(got, want string) (int, string, string) {
	if got == want {
		return 0, "", ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}
