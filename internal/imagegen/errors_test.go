package imagegen_test

import (
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
	"lepton/internal/store"
)

func TestErrorCodeTable(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 60
	}
	q := store.Qualify(imagegen.BuildErrorCorpus(1, n))
	if q.Total != n {
		t.Fatalf("total = %d", q.Total)
	}
	// Success dominates; each injected class is classified correctly.
	if float64(q.ByReason[jpeg.ReasonNone])/float64(q.Total) < 0.85 {
		t.Fatalf("success rate too low: %s", q)
	}
	for _, r := range []jpeg.Reason{jpeg.ReasonProgressive, jpeg.ReasonNotImage, jpeg.ReasonCMYK} {
		if q.ByReason[r] == 0 {
			t.Fatalf("reason %v missing from table: %s", r, q)
		}
	}
	if q.CrossCheckFailures != 0 {
		t.Fatalf("cross-check failures: %s", q)
	}
	t.Logf("\n%s", q)
}
