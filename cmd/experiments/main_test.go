package main

import (
	"strings"
	"testing"
)

// TestOnlyMatchesAnyCase: the README and docs/FAULTS.md spell IDs both
// ways, so -only E9 and -only e9 print the same table.
func TestOnlyMatchesAnyCase(t *testing.T) {
	for _, id := range []string{"E9", "e9"} {
		var out, errs strings.Builder
		if code := run(&out, &errs, id); code != 0 {
			t.Fatalf("-only %s: exit %d, stderr %q", id, code, errs.String())
		}
		if !strings.Contains(out.String(), "== E9 — store vs recompute") || strings.Count(out.String(), "== ") != 1 {
			t.Fatalf("-only %s printed:\n%s", id, out.String())
		}
	}
}

// TestOnlyRejectsUnknownID: an ID no experiment has exits 2 and names
// the valid ones instead of printing nothing.
func TestOnlyRejectsUnknownID(t *testing.T) {
	var out, errs strings.Builder
	if code := run(&out, &errs, "e17"); code != 2 {
		t.Fatalf("-only e17: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("-only e17 printed %q", out.String())
	}
	if want := "valid IDs: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 a1 a2"; !strings.Contains(errs.String(), want) {
		t.Fatalf("stderr %q does not list %q", errs.String(), want)
	}
}
