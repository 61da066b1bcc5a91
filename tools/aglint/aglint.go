// Command aglint is the repo's custom determinism-and-atomicity linter.
// It enforces two invariants the standard toolchain has no checker for:
//
//  1. aglint:deterministic — a function whose doc comment carries this
//     marker must not iterate a map with range. The marked functions feed
//     byte-exact artifacts (snapshot codecs, cache keys, commit paths);
//     Go's randomized map iteration order would make their output differ
//     between runs, poisoning content-addressed caches and replay
//     comparisons.
//
//  2. aglint:atomic — a struct field whose comment carries this marker is
//     part of a lock-free protocol and must only be accessed through
//     sync/atomic: either as the &-argument of a sync/atomic function
//     (atomic.LoadUint64(&c.hits)) or, for atomic.Int64-style fields, via
//     the type's own methods. A plain read or assignment is a data race
//     waiting for the right interleaving.
//
// A finding can be suppressed with an aglint:ignore comment on the same
// line, for the rare site where the access is provably pre-publication.
//
// Usage:
//
//	aglint ./internal/... ./cmd/...
//
// aglint is self-contained (standard library only): it resolves the
// module's own packages by walking the repository and type-checks against
// stdlib source, so it needs no module cache or network.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	markDeterministic = "aglint:deterministic"
	markAtomic        = "aglint:atomic"
	markIgnore        = "aglint:ignore"
)

// Finding is one linter violation.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
}

// loader type-checks the module's packages with full type information,
// resolving intra-module imports by directory and everything else from
// stdlib source.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	modPath string
	modRoot string
	pkgs    map[string]*types.Package
	checked map[string]*checkedPkg
}

// checkedPkg is one fully parsed and type-checked package.
type checkedPkg struct {
	dir   string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modPath: modPath,
		modRoot: modRoot,
		pkgs:    map[string]*types.Package{},
		checked: map[string]*checkedPkg{},
	}
}

// Import implements types.Importer for the type-checker's import clauses.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		cp, err := l.load(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// load parses and type-checks the package in dir (non-test files only).
func (l *loader) load(dir, importPath string) (*checkedPkg, error) {
	if cp, ok := l.checked[importPath]; ok {
		return cp, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	cp := &checkedPkg{dir: dir, files: files, info: info, pkg: pkg}
	l.pkgs[importPath] = pkg
	l.checked[importPath] = cp
	return cp, nil
}

// Run lints every package directory and returns the findings in file
// order. modRoot is the repository root (the directory holding go.mod),
// modPath the module path it declares, dirs the package directories.
func Run(modRoot, modPath string, dirs []string) ([]Finding, error) {
	l := newLoader(modRoot, modPath)
	var findings []Finding
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(modRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module root %s", dir, modRoot)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		cp, err := l.load(abs, importPath)
		if err != nil {
			return nil, err
		}
		findings = append(findings, lintPackage(l.fset, cp)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

func lintPackage(fset *token.FileSet, cp *checkedPkg) []Finding {
	var findings []Finding
	for _, f := range cp.files {
		ignore := ignoreLines(fset, f)
		findings = append(findings, checkDeterministic(fset, cp.info, f, ignore)...)
	}
	atomicFields := collectAtomicFields(cp)
	if len(atomicFields) > 0 {
		for _, f := range cp.files {
			ignore := ignoreLines(fset, f)
			findings = append(findings, checkAtomicAccess(fset, cp.info, f, atomicFields, ignore)...)
		}
	}
	return findings
}

// ignoreLines returns the set of line numbers carrying aglint:ignore.
func ignoreLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, markIgnore) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// checkDeterministic flags range-over-map inside functions marked
// aglint:deterministic (including closures they contain).
func checkDeterministic(fset *token.FileSet, info *types.Info, f *ast.File, ignore map[int]bool) []Finding {
	var findings []Finding
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || !strings.Contains(fd.Doc.Text(), markDeterministic) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.Pos())
			if ignore[pos.Line] {
				return true
			}
			findings = append(findings, Finding{
				Pos: pos,
				Message: fmt.Sprintf("range over map %s in %s, which is marked %s: map iteration order is randomized",
					types.TypeString(tv.Type, nil), fd.Name.Name, markDeterministic),
			})
			return true
		})
	}
	return findings
}

// collectAtomicFields returns the struct-field objects whose declarations
// carry aglint:atomic.
func collectAtomicFields(cp *checkedPkg) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				marked := field.Doc != nil && strings.Contains(field.Doc.Text(), markAtomic) ||
					field.Comment != nil && strings.Contains(field.Comment.Text(), markAtomic)
				if !marked {
					continue
				}
				for _, name := range field.Names {
					if obj := cp.info.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// checkAtomicAccess flags selector accesses to marked fields outside
// sync/atomic call sites.
func checkAtomicAccess(fset *token.FileSet, info *types.Info, f *ast.File, fields map[types.Object]bool, ignore map[int]bool) []Finding {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	var findings []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || !fields[s.Obj()] {
			return true
		}
		if atomicUse(info, parents, sel) {
			return true
		}
		pos := fset.Position(sel.Pos())
		if ignore[pos.Line] {
			return true
		}
		findings = append(findings, Finding{
			Pos: pos,
			Message: fmt.Sprintf("field %s is marked %s but accessed without sync/atomic",
				s.Obj().Name(), markAtomic),
		})
		return true
	})
	return findings
}

// atomicUse reports whether the field selector is used through sync/atomic:
// as &x.f in a sync/atomic function call, or as the receiver of a method on
// a sync/atomic type (atomic.Int64 and friends).
func atomicUse(info *types.Info, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	switch p := parents[sel].(type) {
	case *ast.UnaryExpr:
		if p.Op != token.AND {
			return false
		}
		call, ok := parents[p].(*ast.CallExpr)
		if !ok {
			return false
		}
		return isAtomicFunc(info, call.Fun)
	case *ast.SelectorExpr:
		// x.f.Load(): the outer selector must resolve to a method whose
		// receiver type lives in sync/atomic.
		if p.X != sel {
			return false
		}
		if s, ok := info.Selections[p]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				_, isCall := parents[p].(*ast.CallExpr)
				return isCall
			}
		}
	}
	return false
}

// isAtomicFunc reports whether the call target is a sync/atomic function.
func isAtomicFunc(info *types.Info, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "sync/atomic"
}
