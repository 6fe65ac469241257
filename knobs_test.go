package chiron_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantConfigKnobs is the number of exported fields of the struct types
// named *Config in the program's non-test Go files outside bench/: the
// settings a caller can vary. A change that adds or removes a setting
// updates this number in its own diff.
const wantConfigKnobs = 61

// TestConfigKnobCount pins the settable surface of the program. It fails in
// either direction, so a new setting is a visible decision and a setting
// turned into a constant shows as the count falling.
func TestConfigKnobCount(t *testing.T) {
	fset := token.NewFileSet()
	var total int
	var per []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			knobs := 0
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 { // an embedded field
					knobs++
				}
				for _, name := range field.Names {
					if name.IsExported() {
						knobs++
					}
				}
			}
			total += knobs
			per = append(per, fmt.Sprintf("%s %s: %d", filepath.Dir(path), ts.Name.Name, knobs))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if total != wantConfigKnobs {
		sort.Strings(per)
		t.Fatalf("%d exported *Config fields, want %d:\n%s", total, wantConfigKnobs, strings.Join(per, "\n"))
	}
}
