package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked module package: the parsed non-test
// files plus the go/types objects resolved for them. Test files are
// parsed but not type-checked (they ride along on Module.Files so the
// per-file rules still see them).
type Package struct {
	// Dir is the module-relative directory, e.g. "internal/core".
	Dir string
	// ImportPath is the full import path, e.g. "albireo/internal/core".
	ImportPath string
	// Files are the non-test files, type-checked together.
	Files []*File
	// Types is the checked package object (possibly incomplete when
	// TypeErrors is non-empty; the checker is run in lenient mode).
	Types *types.Package
	// Info holds the identifier resolutions for Files.
	Info *types.Info
	// TypeErrors collects what the lenient type-check could not
	// resolve. Rules degrade to syntactic behavior on affected nodes.
	TypeErrors []error
}

// Module is a fully loaded module: every package type-checked with
// the standard library importer, plus the parsed-only test files.
// It is the input to module-level rules (call-graph analyses).
type Module struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Path is the module path declared in go.mod ("" when unknown).
	Path string
	Fset *token.FileSet
	// Packages are the type-checked packages, sorted by Dir.
	Packages []*Package
	// Files is every parsed file - package files and test files -
	// sorted by RelPath.
	Files []*File
}

// modulePath extracts the module path from a go.mod file's contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				return unq
			}
			return rest
		}
	}
	return ""
}

// rawPackage is a package directory mid-load: parsed, not yet
// type-checked.
type rawPackage struct {
	dir        string // module-relative
	importPath string
	files      []*File
	imports    []string // module-internal import paths
	checked    bool
	inProgress bool
	pkg        *Package
}

// LoadModule parses and type-checks every package under root, which
// must be (or live inside) a module root. Type-checking is lenient:
// errors are recorded per package, never fatal, so analyzers see as
// much resolved type information as the source allows. Only the
// standard library importer is used; the loader adds no dependencies.
func LoadModule(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot := moduleRoot(absRoot)
	mod := &Module{Root: modRoot, Fset: token.NewFileSet()}
	if gomod, err := os.ReadFile(filepath.Join(modRoot, "go.mod")); err == nil {
		mod.Path = modulePath(gomod)
	}

	// Pass 1: parse every .go file, grouped by directory.
	byDir := map[string]*rawPackage{}
	walkErr := filepath.WalkDir(modRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != modRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			rel = p
		}
		f, err := ParseFile(mod.Fset, p, rel)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		mod.Files = append(mod.Files, f)
		if f.IsTest {
			return nil // parsed for per-file rules, never type-checked
		}
		dir := f.Dir()
		rp := byDir[dir]
		if rp == nil {
			importPath := mod.Path
			if dir != "." {
				if importPath != "" {
					importPath += "/" + dir
				} else {
					importPath = dir
				}
			}
			rp = &rawPackage{dir: dir, importPath: importPath}
			byDir[dir] = rp
		}
		rp.files = append(rp.files, f)
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	sort.Slice(mod.Files, func(i, j int) bool { return mod.Files[i].RelPath < mod.Files[j].RelPath })

	// Pass 2: record module-internal imports for topological checking.
	byImportPath := map[string]*rawPackage{}
	for _, rp := range byDir {
		byImportPath[rp.importPath] = rp
		seen := map[string]bool{}
		for _, f := range rp.files {
			for _, ip := range f.Imports {
				if inModule(mod, ip) && !seen[ip] {
					seen[ip] = true
					rp.imports = append(rp.imports, ip)
				}
			}
		}
		sort.Strings(rp.imports)
	}

	// Pass 3: type-check in dependency order.
	checker := &moduleChecker{
		mod:   mod,
		raw:   byImportPath,
		std:   importer.Default(),
		types: map[string]*types.Package{},
	}
	var dirs []string
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		checker.check(byDir[dir])
	}
	for _, dir := range dirs {
		mod.Packages = append(mod.Packages, byDir[dir].pkg)
	}
	return mod, nil
}

// moduleChecker type-checks raw packages, resolving module-internal
// imports from its own results and everything else through the
// standard library's compiled-export importer (with a from-source
// fallback for toolchains without export data installed).
type moduleChecker struct {
	mod   *Module
	raw   map[string]*rawPackage
	std   types.Importer
	src   types.Importer
	types map[string]*types.Package
}

// Import implements types.Importer over the two-tier resolution.
func (c *moduleChecker) Import(importPath string) (*types.Package, error) {
	if p := c.types[importPath]; p != nil {
		return p, nil
	}
	if rp := c.raw[importPath]; rp != nil {
		c.check(rp)
		if p := c.types[importPath]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("lint: module package %s failed to check", importPath)
	}
	p, err := c.std.Import(importPath)
	if err == nil {
		return p, nil
	}
	if c.src == nil {
		c.src = importer.ForCompiler(c.mod.Fset, "source", nil)
	}
	return c.src.Import(importPath)
}

// check type-checks one raw package (idempotent; import cycles are
// broken by recording the package as in progress and letting the
// checker report the unresolved import).
func (c *moduleChecker) check(rp *rawPackage) {
	if rp.checked || rp.inProgress {
		return
	}
	rp.inProgress = true
	defer func() { rp.inProgress = false; rp.checked = true }()

	pkg := &Package{Dir: rp.dir, ImportPath: rp.importPath, Files: rp.files}
	rp.pkg = pkg

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:    c,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	asts := make([]*ast.File, len(rp.files))
	for i, f := range rp.files {
		asts[i] = f.AST
	}
	tpkg, _ := conf.Check(rp.importPath, c.mod.Fset, asts, info) // lenient: errors recorded, not fatal
	pkg.Types = tpkg
	pkg.Info = info
	c.types[rp.importPath] = tpkg
	for _, f := range rp.files {
		f.Info = info
		f.Pkg = pkg
	}
}

// inModule reports whether importPath belongs to the loaded module.
func inModule(m *Module, importPath string) bool {
	return m.Path != "" && (importPath == m.Path || strings.HasPrefix(importPath, m.Path+"/"))
}
