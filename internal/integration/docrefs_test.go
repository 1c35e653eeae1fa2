package integration_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// mdPath matches a Markdown file named in Go source: README.md,
// docs/FAULTS.md, bench/README.md.
var mdPath = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestGoFilesNameOnlyExistingDocs: every *.md path a Go file names, in a
// comment or a string, exists — relative to the repository root or to
// the file's own directory — so no comment cites a document that is not
// in the tree.
func TestGoFilesNameOnlyExistingDocs(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // as the exports guard: hidden build trees and fixtures
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(src), "\n") {
			for _, doc := range mdPath.FindAllString(line, -1) {
				if !exists(filepath.Join(root, doc)) && !exists(filepath.Join(filepath.Dir(path), doc)) {
					t.Errorf("%s:%d names %s, which is not in the tree", rel, i+1, doc)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
