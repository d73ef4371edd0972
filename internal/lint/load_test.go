package lint

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

// fixtureModule loads the self-contained module under testdata/mod
// once and shares it across the module-rule tests. The nested go.mod
// keeps the fixture invisible to the repo's own build and lint walk
// while giving the loader a real multi-package module to type-check.
func fixtureModule(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = LoadModule(filepath.Join("testdata", "mod"))
	})
	if fixtureErr != nil {
		t.Fatalf("load fixture module: %v", fixtureErr)
	}
	return fixtureMod
}

// moduleFindings renders one rule set's findings over the fixture
// module as "path:line: [rule] message" strings.
func moduleFindings(t *testing.T, rules []*Rule) []string {
	t.Helper()
	var got []string
	for _, fd := range CheckModule(fixtureModule(t), rules) {
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", fd.Pos.Filename, fd.Pos.Line, fd.Rule, fd.Message))
	}
	return got
}

func TestLoadModuleFixture(t *testing.T) {
	m := fixtureModule(t)
	if m.Path != "fixturemod" {
		t.Errorf("module path = %q, want fixturemod", m.Path)
	}
	wantPkgs := []string{"internal/cg", "internal/det", "internal/fleet", "internal/hot"}
	if len(m.Packages) != len(wantPkgs) {
		t.Fatalf("got %d packages, want %d", len(m.Packages), len(wantPkgs))
	}
	for i, p := range m.Packages {
		if p.Dir != wantPkgs[i] {
			t.Errorf("package %d dir = %q, want %q", i, p.Dir, wantPkgs[i])
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("package %s missing type-check results", p.Dir)
		}
		for _, err := range p.TypeErrors {
			t.Errorf("package %s type error: %v", p.Dir, err)
		}
		if p.ImportPath != "fixturemod/"+p.Dir {
			t.Errorf("package %s import path = %q", p.Dir, p.ImportPath)
		}
	}
	for _, f := range m.Files {
		if !f.IsTest && (f.Info == nil || f.Pkg == nil) {
			t.Errorf("loaded file %s missing Info/Pkg back-references", f.RelPath)
		}
	}
}

// TestLoadRepositoryTypeClean pins the loader to the real module: the
// albireo tree must type-check with zero errors, or every type-aware
// rule silently degrades to its syntactic fallback.
func TestLoadRepositoryTypeClean(t *testing.T) {
	t.Parallel()
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("load repo module: %v", err)
	}
	if m.Path != "albireo" {
		t.Errorf("module path = %q, want albireo", m.Path)
	}
	for _, p := range m.Packages {
		for _, terr := range p.TypeErrors {
			t.Errorf("package %s: %v", p.Dir, terr)
		}
	}
}

// TestTypeAwareShadowing runs the determinism rule over the fixture
// module: det.localShadow calls Float64 on a local value named rand,
// which only type resolution can tell apart from the math/rand
// package. Zero findings means the resolution is exact.
func TestTypeAwareShadowing(t *testing.T) {
	got := moduleFindings(t, []*Rule{Determinism()})
	if len(got) != 0 {
		t.Errorf("want no determinism findings in fixture module, got %q", got)
	}
}
