package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The benchmark may lean only on the part of the served system that the
// ROADMAP does not mark for deletion, so the simplicity PRs that follow
// never have to edit bench/. This is that part; using anything else
// fails here first.
var allowedSurface = map[string]bool{
	"tsdb.OpenWithOptions": true, "tsdb.Options": true, "tsdb.SeriesKey": true,
	"tsdb.Entry": true, "tsdb.Point": true, "tsdb.KeyFilter": true, "tsdb.DB": true,
	"tsdb.DB.AppendBatchIfChanged": true, "tsdb.DB.Flush": true, "tsdb.DB.Checkpoint": true,
	"tsdb.DB.Close": true, "tsdb.DB.Query": true, "tsdb.DB.Keys": true, "tsdb.DB.PointCount": true,
	"tsdb.SeriesKey.String": true,

	"archive.NewService": true, "archive.NewAdmission": true, "archive.AdmissionConfig": true,
	"archive.QueryRequest": true, "archive.Service": true,
	"archive.Service.Handler": true, "archive.Service.SetAdmission": true, "archive.Service.SetWorkers": true,
	"archive.Service.Registry": true, "archive.Service.Query": true, "archive.Service.QueryCursor": true,
	"archive.Service.Latest": true,

	// catalog.Standard and whatever reads what it returns.
	"catalog.Standard": true, "catalog.Catalog": true,
	"catalog.Catalog.Types": true, "catalog.Catalog.Regions": true,

	"obs.ParseExposition": true,
}

var allowedPaths = map[string]bool{
	"/api/v1/query": true, "/api/v1/latest": true, "/api/v1/metrics": true, "/readyz": true,
}

func TestImportSurface(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["main"].Files {
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	if _, err := conf.Check("repro/bench", fset, files, info); err != nil {
		t.Fatalf("type-checking bench: %v", err)
	}

	used := map[string]token.Pos{}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
			continue
		}
		name := obj.Pkg().Name() + "."
		switch o := obj.(type) {
		case *types.Var:
			if o.IsField() {
				continue // the fields of an allowed type come with it
			}
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				name += rt.(*types.Named).Obj().Name() + "."
			}
		}
		used[name+obj.Name()] = id.Pos()
	}
	var names []string
	for n := range used {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !allowedSurface[n] {
			t.Errorf("%s: bench uses %s, which is outside its allowed surface", fset.Position(used[n]), n)
		}
	}
	for _, must := range []string{"tsdb.DB.AppendBatchIfChanged", "archive.Service.Handler", "obs.ParseExposition"} {
		if _, ok := used[must]; !ok {
			t.Errorf("the guard did not see %s: it is not looking at the code", must)
		}
	}

	// Over HTTP: the four endpoints, and never the offset path.
	endpoint := regexp.MustCompile(`/(api/v1/[a-z/]+|readyz|healthz)`)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			for _, p := range endpoint.FindAllString(lit.Value, -1) {
				if !allowedPaths[strings.TrimSuffix(p, "/")] {
					t.Errorf("%s: bench requests %s", fset.Position(lit.Pos()), p)
				}
			}
			if v := strings.ToLower(lit.Value); v == `"offset"` || strings.Contains(v, "offset=") || strings.Contains(v, "-offset") {
				t.Errorf("%s: bench names the deprecated offset path", fset.Position(lit.Pos()))
			}
			return true
		})
	}
}
