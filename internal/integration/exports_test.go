package integration_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exportBudget ratchets the number of exported declarations (funcs,
// methods and types) in non-test files under internal/ and dislib/.
// Lower it in the change that deletes some; raising it is a visible API
// decision.
const exportBudget = 606

// exportAllowlist names the exported internal declarations that stay
// although no non-test code names them, each with its reason. A key is
// "<package dir>.<Name>" or "<package dir>.<Recv>.<Name>".
var exportAllowlist = map[string]string{
	"internal/engine/checkpoint.Equivalent":  "reference oracle of the checkpoint and restore parity suites",
	"internal/resources.Node.CanReserve":     "reference oracle the placement index is held to",
	"internal/workloads.ConformanceSuite":    "fixture shared by the engine's and the backends' parity suites",
	"internal/workloads/trace.ReplayLive":    "fixture: replays a trace on the live runtime for the trace parity tests",
	"internal/core.taskCtx.Deadline":         "implements context.Context",
	"internal/engine/checkpoint.Keep":        "parity tests keep every snapshot with Keep(1000)",
	"internal/obsv.Sampler.Series":           "test observation no remaining API replaces",
	"internal/transfer.Registry.CheckLayout": "the engine's registry step check reads the unexported layout through it",
}

// TestInternalExportsHaveACaller applies the one-consumer rule to single
// declarations: an exported func, method or type under internal/ or
// dislib/ stays only if non-test code names it outside its own
// declaration. Go's internal/ rule means nothing outside this module can
// call it, so a declaration only tests reach is surface with no user;
// dislib is held to the same rule because it is the paper's "simple and
// easy to use interface" and names no estimator, so it keeps what a
// program here runs. compss/ stays outside: it keeps surface the paper
// quotes that no program here runs (service tasks, task groups,
// provenance). Every file under
// the frozen bench/ counts as a caller, its tests included. The match is
// by identifier name, so a same-named identifier anywhere hides a
// declaration; the guard errs towards keeping code, never towards
// deleting it. `make budget` prints the count with -v.
func TestInternalExportsHaveACaller(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))

	type decl struct {
		key, name string
		own       int // identifiers with the declaration's name inside it
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		base := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		isTest := strings.HasSuffix(base, "_test.go")
		if !strings.HasSuffix(base, ".go") || (isTest && !strings.HasPrefix(rel, "bench/")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		exporter := !isTest && (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "dislib/"))
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, d := range f.Decls {
			// names are the identifiers d declares, including a method's
			// receiver type: none of them is a use.
			var names []*ast.Ident
			switch d := d.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name)
				key := dir + "."
				if d.Recv != nil {
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if len(names) == 1 {
								key += id.Name + "." // the receiver's type, not its type arguments
							}
							names = append(names, id)
						}
						return true
					})
				}
				if exporter && d.Name.IsExported() {
					decls = append(decls, decl{key: key + d.Name.Name, name: d.Name.Name, own: count(d, d.Name.Name) - 1})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						names = append(names, ts.Name)
						if exporter && ts.Name.IsExported() {
							decls = append(decls, decl{key: dir + "." + ts.Name.Name, name: ts.Name.Name, own: count(ts, ts.Name.Name) - 1})
						}
					}
				}
			}
			skip := map[*ast.Ident]bool{}
			for _, id := range names {
				skip[id] = true
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !skip[id] {
					uses[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var orphans []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := exportAllowlist[d.key]
		switch called := uses[d.name] > d.own; {
		case !called && !allowed:
			orphans = append(orphans, d.key)
		case called && allowed:
			t.Errorf("allowlist entry %s has a caller now: drop it", d.key)
		}
	}
	sort.Strings(orphans)
	for _, k := range orphans {
		t.Errorf("%s is exported but only tests call it: delete it, or unexport it if its package uses it", k)
	}
	for k := range exportAllowlist {
		if !seen[k] {
			t.Errorf("allowlist entry %s names no exported declaration: drop it", k)
		}
	}
	if n := len(decls); n > exportBudget {
		t.Errorf("%d exported declarations under internal/ and dislib/, budget %d: new API must raise the budget explicitly", n, exportBudget)
	} else {
		t.Logf("exported internal/ and dislib/ declarations: %d (budget %d), %d allowlisted", n, exportBudget, len(exportAllowlist))
	}
}

// count returns how many identifiers named name occur inside n.
func count(n ast.Node, name string) int {
	c := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			c++
		}
		return true
	})
	return c
}
