package experiments

import "testing"

func TestA1RenamingRemovesFalseEdges(t *testing.T) {
	tab := run(t)(a1Renaming(5, 16))
	const with, without = "renaming on (COMPSs)", "renaming off"
	if war, waw := tab.at(with, "WAR").vals[0], tab.at(with, "WAW").vals[0]; war != 0 || waw != 0 {
		t.Fatalf("renaming left false edges: WAR %v, WAW %v", war, waw)
	}
	if tab.at(without, "WAR").vals[0] == 0 {
		t.Fatal("no-renaming produced no WAR edges on a stencil")
	}
	if w, wo := tab.at(with, "edges").vals[0], tab.at(without, "edges").vals[0]; wo <= w {
		t.Fatalf("edges: with=%v without=%v", w, wo)
	}
	if w, wo := tab.at(with, "makespan"), tab.at(without, "makespan"); wo.vals[0] < w.vals[0] {
		t.Fatalf("false dependencies cannot speed things up: with=%s without=%s", w.text, wo.text)
	}
}

func TestA2PriorityOrderingHelps(t *testing.T) {
	tab := run(t)(a2Priority(48))
	full, stripped := tab.at("ml", "makespan (3rd execution)"), tab.at("ml-noprio", "makespan (3rd execution)")
	if full.vals[0] > stripped.vals[0] {
		t.Fatalf("LPT ordering made things worse: full=%s stripped=%s", full.text, stripped.text)
	}
}
