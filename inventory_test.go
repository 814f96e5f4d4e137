package hesgx_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateInventory = flag.Bool("update", false, "rewrite INVENTORY.txt from the source tree")

// inventoryFile is the checked-in surface inventory TestInventory keeps in
// step with the source.
const inventoryFile = "INVENTORY.txt"

// TestInventory regenerates the repository's surface inventory — non-test
// Go lines and exported identifiers per package, functional options
// (With*), command-line flags under cmd/, and the literal metric names
// passed to stats.Registry methods — and fails when it differs from
// INVENTORY.txt. A change that adds or removes surface shows up as a diff
// of that file; accept it with
//
//	go test -run TestInventory -update .
func TestInventory(t *testing.T) {
	got, err := buildInventory(".")
	if err != nil {
		t.Fatal(err)
	}
	if *updateInventory {
		if err := os.WriteFile(inventoryFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(inventoryFile)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestInventory -update .)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale; first difference:\n%s\nregenerate with: go test -run TestInventory -update .",
			inventoryFile, firstDiff(want, got))
	}
}

// pkgInventory is one package's share of the inventory.
type pkgInventory struct {
	lines    int
	exported []string
}

// inventoryFlagFuncs maps the flag/FlagSet definers to the index of their
// name argument.
var inventoryFlagFuncs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

// inventoryMetricFuncs are the stats.Registry methods that take a series
// name first. A call counts when that argument is a string literal (or a
// concatenation starting with one, recorded as "prefix*"); no other method
// of these names takes a string first.
var inventoryMetricFuncs = map[string]bool{
	"Counter": true, "Gauge": true, "Sample": true, "Histogram": true,
	"Observe": true, "ObserveHistogram": true, "ObserveHistogramExemplar": true,
}

func buildInventory(root string) ([]byte, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgs := map[string]*pkgInventory{}
	flags := map[string]bool{}   // "cmd/<name> -flag"
	metrics := map[string]bool{} // series name
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := module
		if dir != "." {
			pkgPath += "/" + dir
		}
		p := pkgs[pkgPath]
		if p == nil {
			p = &pkgInventory{}
			pkgs[pkgPath] = p
		}
		p.lines += bytes.Count(src, []byte("\n"))
		p.exported = append(p.exported, fileExports(f)...)
		isCmd := strings.HasPrefix(dir, "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := inventoryFlagFuncs[sel.Sel.Name]; ok && isCmd && i < len(call.Args) {
				if s, ok := stringLit(call.Args[i]); ok {
					flags[dir+" -"+s] = true
				}
			}
			if inventoryMetricFuncs[sel.Sel.Name] && len(call.Args) > 0 {
				if s, ok := stringLit(call.Args[0]); ok {
					metrics[s] = true
				} else if s, ok := literalPrefix(call.Args[0]); ok {
					metrics[s+"*"] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Surface inventory, generated by inventory_test.go. Do not edit; regenerate with\n")
	fmt.Fprintf(&b, "#   go test -run TestInventory -update .\n\n")

	var options []string
	totalLines, totalExported := 0, 0
	fmt.Fprintf(&b, "## packages: non-test Go lines, exported identifiers\n")
	for _, name := range names {
		p := pkgs[name]
		sort.Strings(p.exported)
		fmt.Fprintf(&b, "%-34s %6d %4d\n", name, p.lines, len(p.exported))
		totalLines += p.lines
		totalExported += len(p.exported)
		for _, id := range p.exported {
			if fn, ok := strings.CutPrefix(id, "func With"); ok && fn != "" {
				options = append(options, name+".With"+fn)
			}
		}
	}
	fmt.Fprintf(&b, "%-34s %6d %4d\n", "total", totalLines, totalExported)
	fmt.Fprintf(&b, "options %d, flags %d, metric names %d\n", len(options), len(flags), len(metrics))

	fmt.Fprintf(&b, "\n## exported identifiers\n")
	for _, name := range names {
		p := pkgs[name]
		if len(p.exported) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s\n", name)
		for _, id := range p.exported {
			fmt.Fprintf(&b, "\t%s\n", id)
		}
	}

	fmt.Fprintf(&b, "\n## options (With*)\n")
	for _, o := range options {
		fmt.Fprintf(&b, "%s\n", o)
	}

	fmt.Fprintf(&b, "\n## flags\n")
	writeSorted(&b, flags)
	fmt.Fprintf(&b, "\n## metric names\n")
	writeSorted(&b, metrics)
	return b.Bytes(), nil
}

// fileExports lists a file's exported surface: top-level funcs, types,
// vars and consts, methods on exported types, and the fields and methods
// of exported structs and interfaces.
func fileExports(f *ast.File) (exported []string) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				exported = append(exported, "func "+d.Name.Name)
				continue
			}
			recv, ok := receiverName(d.Recv.List[0].Type)
			if ok {
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				exported = append(exported, "method "+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					exported = append(exported, "type "+s.Name.Name)
					exported = append(exported, memberExports(s.Name.Name, s.Type)...)
				case *ast.ValueSpec:
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, kind+" "+n.Name)
						}
					}
				}
			}
		}
	}
	return exported
}

// memberExports lists the exported fields of a struct type or methods of
// an interface type as "field T.F" / "method T.M".
func memberExports(typeName string, expr ast.Expr) []string {
	var list *ast.FieldList
	kind := "field"
	switch t := expr.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list, kind = t.Methods, "method"
	default:
		return nil
	}
	var out []string
	for _, field := range list.List {
		if len(field.Names) == 0 {
			// Embedded: the field is named after its type.
			if name, ok := receiverName(field.Type); ok {
				out = append(out, kind+" "+typeName+"."+strings.TrimPrefix(name, "*"))
			}
			continue
		}
		for _, n := range field.Names {
			if n.IsExported() {
				out = append(out, kind+" "+typeName+"."+n.Name)
			}
		}
	}
	return out
}

// receiverName renders an exported receiver or embedded type as "T" or
// "*T"; ok is false for unexported or qualified types.
func receiverName(expr ast.Expr) (string, bool) {
	star := ""
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = "*", s.X
	}
	switch t := expr.(type) {
	case *ast.IndexExpr:
		expr = t.X
	case *ast.IndexListExpr:
		expr = t.X
	}
	id, ok := expr.(*ast.Ident)
	if !ok || !id.IsExported() {
		return "", false
	}
	return star + id.Name, true
}

func stringLit(expr ast.Expr) (string, bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// literalPrefix returns the leading string literal of a concatenation.
func literalPrefix(expr ast.Expr) (string, bool) {
	for {
		bin, ok := expr.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			return stringLit(expr)
		}
		expr = bin.X
	}
}

func modulePath(goMod string) (string, error) {
	src, err := os.ReadFile(goMod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", goMod)
}

func writeSorted(b *bytes.Buffer, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s\n", k)
	}
}

// firstDiff renders the first differing line of two inventories.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  file:   %q\n  source: %q", i+1, wl, gl)
		}
	}
	return "(none)"
}
