package des

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/history"
)

func TestAvgWindowValidation(t *testing.T) {
	l := control.AIMD{C0: 10, C1: 2, QHat: 12}
	cfg := Config{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, AvgWindow: -1}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted negative averaging window")
	}
}

// TestAvgQueueOver exercises the DECbit averaged-queue rule that
// AvgWindow feedback reads (history.Series.AvgHold) on a hand-built
// queue history, against the exact step integral.
func TestAvgQueueOver(t *testing.T) {
	h := history.New(1)
	// Hand-build a history: q=0 on [0,1), q=2 on [1,3), q=1 on [3,∞).
	h.Append(0, 0)
	h.Append(1, 2)
	h.Append(3, 1)
	cases := []struct {
		a, b, want float64
	}{
		{0, 1, 0},
		{1, 3, 2},
		{0, 4, (0*1 + 2*2 + 1*1) / 4.0},
		{2, 4, (2*1 + 1*1) / 2.0},
		{3.5, 4.5, 1},
		{-2, 0.5, 0}, // pre-history counts as empty
	}
	for _, tc := range cases {
		if got := h.AvgHold(0, tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("AvgHold(0, %v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// Degenerate window falls back to the point value.
	if got := h.AvgHold(0, 2, 2); got != 2 {
		t.Errorf("point window = %v, want 2", got)
	}
}

// TestDECbitAveragingSmoothsControl: the averaged signal must reduce
// spurious control-branch flips (increase/decrease direction changes
// caused by Poisson jitter around the threshold) — the stated purpose
// of the Ramakrishnan-Jain signal averaging. The sawtooth itself
// survives (its flips are the control loop), so the comparison is the
// flip *rate*, which jitter inflates.
func TestDECbitAveragingSmoothsControl(t *testing.T) {
	run := func(avgWindow float64) float64 {
		cfg := Config{
			Mu:   50,
			Seed: 23,
			Sources: []SourceConfig{{
				Law:       control.AIMD{C0: 20, C1: 2, QHat: 15},
				Interval:  0.05,
				Lambda0:   5,
				MinRate:   1,
				AvgWindow: avgWindow,
			}},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(1500, 300)
		if err != nil {
			t.Fatal(err)
		}
		// Count direction changes of the rate trace after warmup.
		flips := 0
		var span float64
		prevDir := 0
		for i := 1; i < len(res.RateT[0]); i++ {
			if res.RateT[0][i] < 300 {
				continue
			}
			d := res.RateL[0][i] - res.RateL[0][i-1]
			dir := 0
			if d > 0 {
				dir = 1
			} else if d < 0 {
				dir = -1
			}
			if dir != 0 && prevDir != 0 && dir != prevDir {
				flips++
			}
			if dir != 0 {
				prevDir = dir
			}
			span = res.RateT[0][i] - 300
		}
		return float64(flips) / span
	}
	raw := run(0)
	smoothed := run(0.2)
	if !(smoothed < raw*0.8) {
		t.Fatalf("averaging did not reduce branch flips: %v/s (averaged) vs %v/s (instantaneous)", smoothed, raw)
	}
}

// TestDECbitKeepsThroughput: smoothing must not cost meaningful
// throughput.
func TestDECbitKeepsThroughput(t *testing.T) {
	run := func(avgWindow float64) float64 {
		cfg := Config{
			Mu:   50,
			Seed: 29,
			Sources: []SourceConfig{{
				Law:       control.AIMD{C0: 20, C1: 2, QHat: 15},
				Interval:  0.05,
				Lambda0:   5,
				MinRate:   1,
				AvgWindow: avgWindow,
			}},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(1500, 300)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput[0]
	}
	raw := run(0)
	smoothed := run(0.2)
	if smoothed < raw*0.95 {
		t.Fatalf("averaging cost too much throughput: %v vs %v", smoothed, raw)
	}
}
