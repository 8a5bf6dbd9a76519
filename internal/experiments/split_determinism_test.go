package experiments

import (
	"regexp"
	"runtime"
	"testing"
)

// TestSuiteDeterministicAcrossSplits is the two-level scheduler's
// acceptance criterion: any (outer, inner) worker split — serial with
// wide grants, wide outer with unit grants, and a forced inner
// override — must render byte-identical text, CSV and JSON. The
// filter picks experiments whose inner pools actually engage
// (sweep-cell inner workers for E11/E12/E18, the netmf sweep for
// E30), so a split that leaked into results would show here.
func TestSuiteDeterministicAcrossSplits(t *testing.T) {
	filter := regexp.MustCompile(`^E(11|12|18|30)$`)
	base, baseCSV, baseJS := renderSuite(t, 1, filter)
	for _, cfg := range []struct {
		name  string
		outer int
		inner int
	}{
		{"outer4", 4, 0},
		{"outer2-forced3", 2, 3},
		{"outer8-forced1", 8, 1},
	} {
		SetInnerWorkers(cfg.inner)
		text, csv, js := renderSuite(t, cfg.outer, filter)
		SetInnerWorkers(0)
		if text != base {
			t.Errorf("%s: text output differs from serial run", cfg.name)
		}
		if csv != baseCSV {
			t.Errorf("%s: CSV output differs from serial run", cfg.name)
		}
		if js != baseJS {
			t.Errorf("%s: JSON output differs from serial run", cfg.name)
		}
	}
}

// TestNegotiateInner pins the grant policy: the shared budget is
// GOMAXPROCS, each outer worker's experiment receives
// clamp(budget/outer, 1, Width), and Width 0 leaves the grant uncapped.
func TestNegotiateInner(t *testing.T) {
	// negotiateInner reads GOMAXPROCS; derive expectations from it so
	// the test is host-independent.
	budget := negotiateInner(1, 0)
	if budget < 1 {
		t.Fatalf("budget %d < 1", budget)
	}
	if got := negotiateInner(budget, 0); got != 1 {
		t.Errorf("grant at outer=budget: %d, want 1", got)
	}
	if got := negotiateInner(2*budget, 0); got != 1 {
		t.Errorf("grant must clamp to 1 when oversubscribed, got %d", got)
	}
	if got := negotiateInner(1, 1); got != 1 {
		t.Errorf("width 1 must cap the grant, got %d", got)
	}
	if budget > 1 {
		if got := negotiateInner(1, budget-1); got != budget-1 {
			t.Errorf("width %d cap: got %d", budget-1, got)
		}
	}
}

// TestCtxNil: a nil context is the valid direct-invocation default —
// no recorder, a grant of every core resolved explicitly (the engines
// read 0 as serial, so the top level must hand down GOMAXPROCS) — and
// the SetInnerWorkers override applies to it too.
func TestCtxNil(t *testing.T) {
	var c *Ctx
	if c.Rec() != nil {
		t.Error("nil ctx has a recorder")
	}
	if want := runtime.GOMAXPROCS(0); c.Inner() != want {
		t.Errorf("nil ctx grant = %d, want GOMAXPROCS = %d", c.Inner(), want)
	}
	SetInnerWorkers(3)
	defer SetInnerWorkers(0)
	if c.Inner() != 3 {
		t.Errorf("override not applied to nil ctx: %d", c.Inner())
	}
	if got := NewCtx(nil, 5).Inner(); got != 3 {
		t.Errorf("override must win over the grant: %d", got)
	}
}
