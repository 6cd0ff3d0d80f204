package lint

import (
	"bytes"
	"encoding/json"
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
	"sort"
)

// Package is one typechecked module package, ready for analysis.
type Package struct {
	// Path is the import path (module-rooted, e.g. fivegsim/internal/abr).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is shared by every package of one Load.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name, with
	// positions (and therefore diagnostics) relative to the module root.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Escapes holds the compiler's heap-allocation findings in Files, file
	// by file in Files order, for the noalloc check.
	Escapes []EscapeSite
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string   // gc export-data file
	GoFiles    []string // the files that build on this host
	DepOnly    bool     // a dependency from outside the ./... pattern
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load parses and typechecks every package of the module rooted at root
// (the directory holding go.mod) and returns them sorted by import path.
//
// One `go list -e -export -deps -json -gcflags='-m -m' ./...` run decides
// everything the go tool owns: which directories are module packages
// (testdata, vendor and nested modules are not), which files build on this
// host (//go:build lines and _GOOS/_GOARCH file names alike), the module's
// go version, and the export-data file of every import from outside the
// module. Building that export data compiles the module packages, and
// -gcflags (which applies only to the packages the pattern names) makes
// the compiler print its escape analysis on stderr, replayed from the
// build cache when nothing changed; Load keeps it as Package.Escapes.
// Module packages are then typechecked from source, in the dependency
// order go list prints them in, with file names relative to root so
// diagnostic positions are stable. A package the go tool cannot list or
// build fails the load with the go tool's message.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "-gcflags=-m -m", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, stderr.String())
	}
	escapes := parseEscapes(stderr.String())

	fset := token.NewFileSet()
	exports := make(map[string]string)
	typed := make(map[string]*types.Package)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := typed[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})}

	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.DepOnly {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		var esc []EscapeSite
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return nil, err
			}
			rel = filepath.ToSlash(rel)
			f, err := parser.ParseFile(fset, rel, src,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", rel, err)
			}
			files = append(files, f)
			esc = append(esc, escapes[rel]...)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		if lp.Module != nil {
			conf.GoVersion = "go" + lp.Module.GoVersion
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type error: %w", err)
		}
		typed[lp.ImportPath] = tpkg
		pkgs = append(pkgs, &Package{
			Path:    lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
			Escapes: esc,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
