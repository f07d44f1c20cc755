package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path ("gpa/internal/gpusim").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Main reports a command (package main).
	Main bool
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, with comments.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load builds the analyzer input for the Go module rooted at dir: it
// resolves patterns with `go list -json -export -deps`, parses every
// non-standard package from source, and type-checks them in dependency
// order. Standard-library imports are resolved through their compiler
// export data (go/importer with a lookup into the build cache), so the
// loader needs no third-party machinery and the module stays
// dependency-free. The returned slice holds the packages the patterns
// match, in dependency order; a non-standard package loaded only as
// their dependency is type-checked for them but not returned.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %v: %v\n%s", args, err, stderr.Bytes())
	}

	pkgs := map[string]*listPackage{}
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}

	fset := token.NewFileSet()

	// Standard-library imports resolve from export data; the lookup
	// hands the gc importer the build-cache export file go list forced
	// into existence with -export.
	exportImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := pkgs[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(p.Export)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		tp, err := exportImp.Import(path)
		if err == nil {
			checked[path] = tp
		}
		return tp, err
	})

	// Type-check the non-standard packages from source in dependency
	// order (DFS postorder over the import graph).
	var topo []string
	seen := map[string]bool{}
	var visit func(string)
	visit = func(ip string) {
		if seen[ip] || pkgs[ip].Standard {
			return
		}
		seen[ip] = true
		for _, im := range pkgs[ip].Imports {
			if _, ok := pkgs[im]; ok {
				visit(im)
			}
		}
		topo = append(topo, ip)
	}
	for _, ip := range order {
		visit(ip)
	}

	var loaded []*Package
	for _, ip := range topo {
		lp := pkgs[ip]
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo (unsupported)", ip)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(ip, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", ip, err)
		}
		checked[ip] = tp
		if lp.DepOnly {
			continue
		}
		loaded = append(loaded, &Package{
			Path:  ip,
			Dir:   lp.Dir,
			Main:  lp.Name == "main",
			Fset:  fset,
			Files: files,
			Types: tp,
			Info:  info,
		})
	}
	return loaded, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
