// Command experiments prints every experiment table of the README's
// Experiments section, the reproduction of the paper's quantitative
// claims, at its published size; -only prints one experiment's tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run one experiment by ID, in any case (e1..e16, a1, a2)")
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, *only))
}

// run prints the tables of the experiments whose ID matches only (all of
// them when only is empty) and returns the exit status: 2 for an unknown
// ID, 1 for a failed run.
func run(stdout, stderr io.Writer, only string) int {
	var ids []string
	for _, e := range experiments.All {
		if !slices.Contains(ids, e.ID) {
			ids = append(ids, e.ID)
		}
	}
	if only != "" && !slices.ContainsFunc(ids, func(id string) bool { return strings.EqualFold(id, only) }) {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q; valid IDs: %s\n", only, strings.Join(ids, " "))
		return 2
	}
	for _, e := range experiments.All {
		if only != "" && !strings.EqualFold(e.ID, only) {
			continue
		}
		t, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return 1
		}
		t.Print(stdout, e.Title)
	}
	return 0
}
