package integration_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportBudget ratchets the number of exported declarations (funcs,
// methods and types) in non-test files under internal/ and dislib/.
// Lower it in the change that deletes some; raising it is a visible API
// decision.
const exportBudget = 575

// exportAllowlist names the exported internal declarations that stay
// although no non-test code names them, each with its reason. A key is
// "<package dir>.<Name>" or "<package dir>.<Recv>.<Name>".
var exportAllowlist = map[string]string{
	"internal/engine/checkpoint.Equivalent":  "reference oracle of the checkpoint and restore parity suites",
	"internal/resources.Node.CanReserve":     "reference oracle the placement index is held to",
	"internal/transfer.Registry.LocalBytes":  "reference oracle the Locality scans are held to: every candidate asked for its local bytes",
	"internal/workloads.ConformanceSuite":    "fixture shared by the engine's and the backends' parity suites",
	"internal/workloads/trace.ReplayLive":    "fixture: replays a trace on the live runtime for the trace parity tests",
	"internal/engine/checkpoint.Keep":        "parity tests keep every snapshot with Keep(1000)",
	"internal/obsv.Sampler.Series":           "test observation no remaining API replaces",
	"internal/resources.Node.Drained":        "test observation: the autoscaler's tests read a node's cordon, which production reads only inside resources",
	"internal/transfer.Registry.CheckLayout": "the engine's registry step check reads the unexported layout through it",
	"internal/host.Host.CheckpointSnapshot":  "the parity suites' probe: a capture that leaves the delta chain's dirty sets alone",
}

// harnessFields are the struct fields kept only because the frozen bench/
// harness sets them. A field cannot move into a harness.go, so the harness
// guard holds each to the same rule by name: no code outside bench/ and
// the field's own package names it.
var harnessFields = []string{
	"internal/engine/checkpoint.Config.Delta",
	"internal/obsv.EngineMetrics.Launched",
}

// TestInternalExportsHaveACaller applies the one-consumer rule to single
// declarations: an exported func, method or type under internal/ or
// dislib/ stays only if non-test code uses it outside its own
// declaration. Go's internal/ rule means nothing outside this module can
// call it, so a declaration only tests reach is surface with no user;
// dislib is held to the same rule because it is the paper's "simple and
// easy to use interface" and names no estimator, so it keeps what a
// program here runs. compss/ stays outside: it keeps surface the paper
// quotes that no program here runs (service tasks, task groups,
// provenance). Every file under the frozen bench/ counts as a caller, its
// tests included. Uses are resolved by go/types, so a same-spelled
// identifier elsewhere hides nothing; a method also counts as used when
// its type implements an interface that has it (fmt.Stringer,
// context.Context, checkpoint.Source, ...), since a call through the
// interface names only the interface's method. `make budget` prints the
// count with -v.
func TestInternalExportsHaveACaller(t *testing.T) {
	m := loadModule(t)
	var decls []string
	seen := map[string]bool{}
	for _, v := range m.plain {
		if !strings.HasPrefix(v.dir+"/", "internal/") && !strings.HasPrefix(v.dir+"/", "dislib/") {
			continue
		}
		for _, f := range v.files {
			for _, d := range f.Decls {
				for _, id := range declared(d, false) {
					if !id.IsExported() {
						continue
					}
					obj := v.info.Defs[id]
					key := m.key(obj)
					decls = append(decls, key)
					seen[key] = true
					_, allowed := exportAllowlist[key]
					switch called := m.uses[key] > 0 || m.implements(obj); {
					case !called && !allowed:
						t.Errorf("%s is exported but only tests call it: delete it, or unexport it if its package uses it", key)
					case called && allowed:
						t.Errorf("allowlist entry %s has a caller now: drop it", key)
					}
				}
			}
		}
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

// TestHarnessNamesOnlyBenchUses keeps the frozen bench/ harness's debt in
// one place per package. A name that only bench/ still uses is declared
// in that package's harness.go, and a harness.go holds nothing else: the
// guard fails when code outside bench/ (tests included) names a
// harness.go declaration, or when a harness.go declares a name bench/ no
// longer uses — delete it then. harnessFields are held to the same rule.
// `make budget` prints the debt with -v: the harness.go lines and the
// fields.
func TestHarnessNamesOnlyBenchUses(t *testing.T) {
	m := loadModule(t)
	lines := 0
	var names, files []string
	for _, v := range m.plain {
		for i, f := range v.files {
			if v.names[i] != "harness.go" {
				continue
			}
			n := bytes.Count(v.src[i], []byte("\n"))
			lines += n
			files = append(files, fmt.Sprintf("%s/harness.go %d", v.dir, n))
			for _, d := range f.Decls {
				for _, id := range declared(d, true) {
					names = append(names, m.key(v.info.Defs[id]))
				}
			}
		}
	}
	names = append(names, harnessFields...)
	for _, k := range names {
		if n := m.outside[k]; n > 0 {
			t.Errorf("%s is kept for bench/ alone, but %d uses outside bench/ name it: spell what it stands for", k, n)
		}
		if m.bench[k] == 0 {
			t.Errorf("%s is kept for bench/, which no longer uses it: delete it", k)
		}
	}
	sort.Strings(files)
	t.Logf("harness debt: %d lines in harness.go files (%s); fields only bench/ sets: %s",
		lines, strings.Join(files, ", "), strings.Join(harnessFields, ", "))
}

// variant is one type-checked package: its plain build, its build with
// its in-package test files, or its external test package.
type variant struct {
	dir   string // module-relative directory
	files []*ast.File
	names []string // base names, parallel to files
	src   [][]byte // contents, parallel to files
	info  *types.Info
	pkg   *types.Package
}

// module is the repository type-checked from source: every package's
// plain variant (the ones other packages import) and its test variants,
// with every resolved use tallied by the key of what it names.
type module struct {
	fset  *token.FileSet
	plain []*variant
	owner map[*types.Var]string // struct field → "<dir>.<Type>.<Field>"

	uses    map[string]int // uses from non-test code and from bench/ tests
	bench   map[string]int // uses from files under bench/
	outside map[string]int // uses outside bench/, tests included, less harness.go and a field's own package
	ifaces  map[string][]*types.Interface
}

var (
	moduleOnce sync.Once
	moduleMemo *module
	moduleErr  error
)

// loadModule type-checks the repository once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleMemo, moduleErr = typecheck() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleMemo
}

// listed is one package as `go list` reports it.
type listed struct {
	path, dir, export     string
	std                   bool
	goFiles, tests, xtest []string
	testImports           []string
}

func goList(root string, args ...string) ([]listed, error) {
	const format = `{{.ImportPath}}	{{.Standard}}	{{.Export}}	{{.Dir}}	{{join .GoFiles " "}}	{{join .TestGoFiles " "}}	{{join .XTestGoFiles " "}}	{{join .TestImports " "}} {{join .XTestImports " "}}`
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-f", format}, args...)...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []listed
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 8 {
			return nil, fmt.Errorf("go list: unexpected line %q", sc.Text())
		}
		pkgs = append(pkgs, listed{
			path: f[0], std: f[1] == "true", export: f[2], dir: f[3],
			goFiles: strings.Fields(f[4]), tests: strings.Fields(f[5]), xtest: strings.Fields(f[6]),
			testImports: strings.Fields(f[7]),
		})
	}
	return pkgs, nil
}

// srcImporter hands out the module's packages as checked from source and
// the standard library from the compiler's export data, so every object
// of the module exists once and go/types can compare them.
type srcImporter struct {
	gc       types.Importer
	src      map[string]*types.Package
	override map[string]*types.Package // an external test's package under test
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if p := im.override[path]; p != nil {
		return p, nil
	}
	if p := im.src[path]; p != nil {
		return p, nil
	}
	return im.gc.Import(path)
}

func typecheck() (*module, error) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("cannot locate repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	pkgs, err := goList(root, "./...")
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var missing []string
	for _, p := range pkgs {
		exports[p.path] = p.export
	}
	for _, p := range pkgs {
		for _, imp := range p.testImports {
			if _, ok := exports[imp]; !ok && !strings.Contains(imp, ".") && !strings.HasPrefix(imp, "repro") {
				exports[imp] = ""
				missing = append(missing, imp)
			}
		}
	}
	if len(missing) > 0 { // the standard packages only tests import
		more, err := goList(root, missing...)
		if err != nil {
			return nil, err
		}
		for _, p := range more {
			if exports[p.path] == "" {
				exports[p.path] = p.export
			}
		}
	}

	m := &module{
		fset: token.NewFileSet(), owner: map[*types.Var]string{},
		uses: map[string]int{}, bench: map[string]int{}, outside: map[string]int{},
		ifaces: map[string][]*types.Interface{},
	}
	im := &srcImporter{
		gc: importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
		src: map[string]*types.Package{}, override: map[string]*types.Package{},
	}
	parsed := map[string]*ast.File{}
	parse := func(dir string, names []string) ([]*ast.File, [][]byte, error) {
		var files []*ast.File
		var srcs [][]byte
		for _, n := range names {
			path := filepath.Join(dir, n)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, nil, err
			}
			f := parsed[path]
			if f == nil {
				if f, err = parser.ParseFile(m.fset, path, src, parser.SkipObjectResolution); err != nil {
					return nil, nil, err
				}
				parsed[path] = f
			}
			files, srcs = append(files, f), append(srcs, src)
		}
		return files, srcs, nil
	}
	check := func(path, dir string, names []string, strict bool) (*variant, error) {
		files, srcs, err := parse(dir, names)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, dir)
		v := &variant{dir: filepath.ToSlash(rel), files: files, names: names, src: srcs, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		var first error
		conf := types.Config{Importer: im, Error: func(err error) {
			if first == nil {
				first = err
			}
		}}
		v.pkg, _ = conf.Check(path, m.fset, files, v.info)
		// A test variant is checked against the plain builds of the
		// packages it imports, which may import the package under test
		// in its plain build: go/types then sees two of it and reports
		// mismatches the go tool avoids by rebuilding. Names still
		// resolve, which is all the guards read from a test variant.
		if strict && first != nil {
			return nil, first
		}
		return v, nil
	}

	var tests []*variant
	for _, p := range pkgs {
		if p.std || len(p.goFiles) == 0 {
			continue
		}
		v, err := check(p.path, p.dir, p.goFiles, true)
		if err != nil {
			return nil, err
		}
		im.src[p.path] = v.pkg
		m.plain = append(m.plain, v)
	}
	for _, p := range pkgs {
		if p.std {
			continue
		}
		under := im.src[p.path]
		if len(p.tests) > 0 {
			v, err := check(p.path, p.dir, append(slices.Clone(p.goFiles), p.tests...), false)
			if err != nil {
				return nil, err
			}
			tests = append(tests, v)
			under = v.pkg
		}
		if len(p.xtest) > 0 {
			im.override[p.path] = under
			v, err := check(p.path+"_test", p.dir, p.xtest, false)
			delete(im.override, p.path)
			if err != nil {
				return nil, err
			}
			tests = append(tests, v)
		}
	}

	// Struct fields are named by their owner; interfaces are indexed by
	// method name for the implements rule.
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m.ifaces[it.Method(i).Name()] = append(m.ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	scan := func(pkg *types.Package, ifaces bool) {
		rel := strings.TrimPrefix(pkg.Path(), "repro/")
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if ifaces {
				addIface(tn.Type())
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					m.owner[st.Field(i)] = rel + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}
	for _, v := range append(slices.Clone(m.plain), tests...) {
		scan(v.pkg, false)
	}
	for _, v := range m.plain {
		scan(v.pkg, true)
		for _, imp := range v.pkg.Imports() {
			scan(imp, true)
		}
		for _, tv := range v.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	tally := func(v *variant, test bool) {
		inBench := v.dir == "bench" || strings.HasPrefix(v.dir, "bench/")
		for i, f := range v.files {
			isTest := strings.HasSuffix(v.names[i], "_test.go")
			if isTest != test {
				continue
			}
			for _, d := range f.Decls {
				skip := map[*ast.Ident]bool{}
				own := map[string]bool{}
				for _, id := range declared(d, true) {
					own[m.key(v.info.Defs[id])] = true
				}
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || skip[id] {
						return true
					}
					obj := v.info.Uses[id]
					if obj == nil {
						return true
					}
					k := m.key(obj)
					if k == "" || own[k] {
						return true
					}
					switch {
					case inBench:
						m.bench[k]++
						m.uses[k]++
					case !test:
						m.uses[k]++
					}
					// A harness.go names its own kind freely, and so does a
					// struct field's own package.
					field, ok := obj.(*types.Var)
					home := ok && field.IsField() && strings.TrimSuffix(obj.Pkg().Path(), "_test") == strings.TrimSuffix(v.pkg.Path(), "_test")
					if !inBench && !home && v.names[i] != "harness.go" {
						m.outside[k]++
					}
					return true
				})
			}
		}
	}
	for _, v := range m.plain {
		tally(v, false)
	}
	for _, v := range tests {
		tally(v, true)
	}
	sort.Slice(m.plain, func(i, j int) bool { return m.plain[i].dir < m.plain[j].dir })
	return m, nil
}

// declared lists the identifiers d declares at package level: funcs,
// methods and types, and with values also its vars and consts.
func declared(d ast.Decl, values bool) []*ast.Ident {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				if values {
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return ids
}

// key names obj as the guards and the allowlist do: "<dir>.<Name>" for a
// package-level object, "<dir>.<Type>.<Name>" for a method or a struct
// field, where dir is the package's directory in the module. It is ""
// for what has no such name (locals, the standard library's fields).
func (m *module) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	dir := strings.TrimPrefix(strings.TrimSuffix(obj.Pkg().Path(), "_test"), "repro/")
	switch obj := obj.(type) {
	case *types.Func:
		obj = obj.Origin()
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			if n := named(recv.Type()); n != nil {
				return dir + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	case *types.Var:
		if obj.IsField() {
			return m.owner[obj.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return dir + "." + obj.Name()
}

// named is t, or what t points to, as the generic type it instantiates.
func named(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// implements reports whether obj is a method some interface in the
// program's reach has, on a type that implements that interface.
func (m *module) implements(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	n := named(fn.Type().(*types.Signature).Recv().Type())
	if n == nil || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range m.ifaces[fn.Name()] {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}
