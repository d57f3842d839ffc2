package fsdmvet_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/fsdmvet"
)

func TestEscapeCheck(t *testing.T) {
	findings := analysistest.Run(t, "testdata/escape", fsdmvet.EscapeCheck, "escape", "pool")
	// seeded-bug: a pooled batch parked in a struct field after its
	// release — the stale-handle escape the statement-order rules
	// cannot see across blocks.
	assertFinding(t, findings, "stored to a field after release")
	// and a released field left set, which the lattice cannot see
	// because the field was not acquired in the releasing function
	assertFinding(t, findings, "not cleared after release")
}
