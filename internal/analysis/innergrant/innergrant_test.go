package innergrant_test

import (
	"testing"

	"fpcc/internal/analysis/analysistest"
	"fpcc/internal/analysis/innergrant"
)

func TestInnergrant(t *testing.T) {
	analysistest.Run(t, innergrant.Analyzer,
		"fpcc/internal/experiments", // the registry: every omission flagged, named bounds and a justified default clean
		"fpcc/internal/netsim",      // engine package passing its caller's bound through: clean
		"fpcc/cmd/demo",             // CLI outside the registry: clean
	)
}
