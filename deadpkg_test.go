package gossipbnb_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadInternalPackage: every internal/ package has an importer outside
// its own directory, counting only non-test files anywhere in the repository
// (bench/, a module of its own, included). A package that only its own tests
// use is dead code: delete it rather than keep it compiling.
func TestNoDeadInternalPackage(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}

	pkgs := map[string]bool{}     // internal package dirs, slash-separated
	imported := map[string]bool{} // internal package dirs imported from another dir
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool ignores these directories too.
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "internal" || strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(ip, module+"/"); ok && path.Clean(rel) != dir {
				imported[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	var dead []string
	for p := range pkgs {
		if !imported[p] {
			dead = append(dead, p)
		}
	}
	sort.Strings(dead)
	for _, p := range dead {
		t.Errorf("%s: no non-test file outside the package imports it", p)
	}
}
