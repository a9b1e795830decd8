package nemesis

import (
	"math/rand"
	"testing"
	"time"
)

// simPipeline is the simulator's send path as it read before Apply existed,
// transcribed with route replaced by recording the delay: the reference
// Apply must reproduce draw for draw. base is the link's latency in seconds,
// reorderWindow and replayAfter the simulator's defaults.
func simPipeline(v Verdict, r *rand.Rand, base, reorderWindow, replayAfter float64, st *NetStats) (routed []float64) {
	if v.Cut {
		st.Drop(&st.Cut)
		return nil
	}
	if v.Loss > 0 && r.Float64() < v.Loss {
		st.Drop(&st.Lost)
		return nil
	}
	if v.Corrupt > 0 && r.Float64() < v.Corrupt {
		st.Drop(&st.Corrupt)
		return nil
	}
	slow := v.Delay.Seconds()
	delay := base + slow
	if v.Reorder > 0 && r.Float64() < v.Reorder {
		w := reorderWindow
		if v.ReorderWindow > 0 {
			w = v.ReorderWindow.Seconds()
		}
		delay += r.Float64() * w
		st.Reordered++
	}
	routed = append(routed, delay)
	if v.Dup > 0 && r.Float64() < v.Dup {
		st.Duplicated++
		routed = append(routed, base+slow)
	}
	if v.Replay > 0 && r.Float64() < v.Replay {
		lag := replayAfter
		if v.ReplayAfter > 0 {
			lag = v.ReplayAfter.Seconds()
		}
		st.Replayed++
		routed = append(routed, lag*(1+r.Float64()))
	}
	return routed
}

// randomVerdict draws a verdict whose probabilities are each 0, 1 or in
// between, with or without a slow delay, a reorder window and a replay lag.
func randomVerdict(g *rand.Rand) Verdict {
	prob := func() float64 {
		switch g.Intn(3) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return g.Float64()
	}
	dur := func(unit time.Duration) time.Duration {
		if g.Intn(2) == 0 {
			return 0
		}
		return time.Duration(1 + g.Int63n(int64(100*unit)))
	}
	return Verdict{
		Cut: g.Intn(10) == 0, Delay: dur(time.Millisecond),
		Loss: prob(), Corrupt: prob(), Reorder: prob(), Dup: prob(), Replay: prob(),
		ReorderWindow: dur(time.Millisecond), ReplayAfter: dur(10 * time.Millisecond),
	}
}

// TestApplyMatchesSimulatorPipeline: over random verdicts and seeds, Apply
// plus the simulator's half (a damaged copy is lost, counted Corrupt) routes
// the same copies, bit for bit and in the same order, as the transcribed
// pipeline, counts the same ledger, and leaves the random stream at the same
// position.
func TestApplyMatchesSimulatorPipeline(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := randomVerdict(g)
		base := g.Float64() * 0.01
		for seed := int64(1); seed <= 20; seed++ {
			rWant, rGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			var stWant, stGot NetStats
			want := simPipeline(v, rWant, base, 0.015, 1, &stWant)
			s := v.Apply(rGot, base, 0.015, 1, &stGot)
			got := s.Delay[:s.Copies]
			if s.Corrupt {
				if s.Copies != 1 {
					t.Fatalf("verdict %+v seed %d: a damaged message has %d copies, want 1", v, seed, s.Copies)
				}
				stGot.Drop(&stGot.Corrupt)
				got = nil
			}
			if len(got) != len(want) {
				t.Fatalf("verdict %+v seed %d: copies %v, want %v", v, seed, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("verdict %+v seed %d: copy %d at %v, want %v", v, seed, k, got[k], want[k])
				}
			}
			if stGot != stWant {
				t.Fatalf("verdict %+v seed %d: ledger %+v, want %+v", v, seed, stGot, stWant)
			}
			if a, b := rGot.Int63(), rWant.Int63(); a != b {
				t.Fatalf("verdict %+v seed %d: the random stream moved differently", v, seed)
			}
		}
	}
}

// TestApplyCorruptIsOneCopy: a damaged message is one copy at the base
// latency, however certain a duplicate, a hold-back or a replay would be.
func TestApplyCorruptIsOneCopy(t *testing.T) {
	v := Verdict{Corrupt: 1, Dup: 1, Reorder: 1, Replay: 1, Delay: 10 * time.Millisecond}
	var st NetStats
	s := v.Apply(rand.New(rand.NewSource(1)), 0.002, 0.01, 1, &st)
	if !s.Corrupt || s.Copies != 1 || s.Delay[0] != 0.002+0.01 || st != (NetStats{}) {
		t.Errorf("sentence %+v, ledger %+v; want one damaged copy at 12 ms and nothing counted", s, st)
	}
}

// TestApplyAllocs: Apply returns its copies in a fixed array.
func TestApplyAllocs(t *testing.T) {
	v := Verdict{Dup: 1, Replay: 1, Reorder: 0.5}
	r := rand.New(rand.NewSource(1))
	var st NetStats
	if a := testing.AllocsPerRun(100, func() { v.Apply(r, 0.001, 0.01, 1, &st) }); a != 0 {
		t.Errorf("Apply allocates %v times per call, want 0", a)
	}
}
