package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

// TestTablesMatchGolden runs every experiment at its published size and
// compares the printed tables with testdata/tables.golden, wall-clock
// cells masked as "~". Any behaviour cell that moves fails here; rerun
// with -update when the move is intended, and say why.
func TestTablesMatchGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range All {
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.Title, err)
		}
		for _, row := range tab.rows {
			for i, c := range tab.cols {
				if c.wall {
					row[i].text = "~"
				}
			}
		}
		tab.Print(&got, e.Title)
	}
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables.golden line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
