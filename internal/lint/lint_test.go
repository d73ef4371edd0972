package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"testing"
)

// fixture lints one testdata file under a pretend module-relative
// path and returns "line: [rule] message" strings.
func fixture(t *testing.T, name, relPath string, rules []*Rule) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := ParseFile(fset, filepath.Join("testdata", name), relPath)
	if err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	var got []string
	for _, fd := range CheckModule(&Module{Fset: fset, Files: []*File{f}}, rules) {
		got = append(got, fmt.Sprintf("%d: [%s] %s", fd.Pos.Line, fd.Rule, fd.Message))
	}
	return got
}

func assertFindings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "determinism.go", "internal/noise/fixture.go", []*Rule{Determinism()})
	assertFindings(t, got, []string{
		"12: [determinism] global rand.Float64 call breaks reproducibility; draw from an injected seeded *rand.Rand (see noise.Params.Sample)",
		"14: [determinism] rand.Seed mutates the global source; build a private stream with rand.New(rand.NewSource(seed)) instead",
		"15: [determinism] time.Now() in simulation code makes runs irreproducible; thread timestamps in as parameters",
		// Line 17 is suppressed; line 19's directive has no reason and
		// is therefore not honored.
		"19: [determinism] global rand.Intn call breaks reproducibility; draw from an injected seeded *rand.Rand (see noise.Params.Sample)",
	})
}

func TestDeterminismOutOfScope(t *testing.T) {
	t.Parallel()
	// cmd/ binaries and test files may use wall clocks and global rand.
	for _, rel := range []string{"cmd/albireo-sim/main.go", "internal/noise/fixture_test.go", "internal/lint/fixture.go"} {
		if got := fixture(t, "determinism.go", rel, []*Rule{Determinism()}); len(got) != 0 {
			t.Errorf("relpath %s: want no findings, got %q", rel, got)
		}
	}
}

func TestObsDeterminismGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "obsdeterminism.go", "internal/perf/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"11: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
		"12: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
		// Line 14 is suppressed with a reason; the injected-clock call
		// and the cycle-denominated record are clean.
	})
}

func TestObsDeterminismOutOfScope(t *testing.T) {
	t.Parallel()
	// cmd/ owns the wall clock, internal/obs hosts the sanctioned
	// Clock boundary, and tests are exempt.
	for _, rel := range []string{
		"cmd/albireo-serve/main.go",
		"internal/obs/clock.go",
		"internal/perf/fixture_test.go",
		"internal/lint/fixture.go",
	} {
		if got := fixture(t, "obsdeterminism.go", rel, []*Rule{ObsDeterminism()}); len(got) != 0 {
			t.Errorf("relpath %s: want no findings, got %q", rel, got)
		}
	}
}

func TestObsDeterminismCoversHealth(t *testing.T) {
	t.Parallel()
	// internal/health is inside the rule's scope: BIST reports and
	// counters must be probe/cycle-denominated, never wall-clocked.
	got := fixture(t, "healthobs.go", "internal/health/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"10: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
		"11: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
	})
}

func TestObsDeterminismCoversFleet(t *testing.T) {
	t.Parallel()
	// internal/fleet is inside the rule's scope: batch linger and
	// re-probe cadence count injected Scheduler.Tick calls; the wall
	// ticker realizing those ticks lives in cmd/albireo-serve.
	got := fixture(t, "fleetobs.go", "internal/fleet/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"11: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
		"14: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
	})
}

func TestObsDeterminismCoversJournal(t *testing.T) {
	t.Parallel()
	// internal/journal is inside the rule's scope: the chain hash
	// covers every payload byte, so a wall-clock stamp anywhere in a
	// record would make identical histories hash to different chains.
	got := fixture(t, "journalobs.go", "internal/journal/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"11: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
		"12: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
	})
}

func TestObsDeterminismCoversGEMM(t *testing.T) {
	t.Parallel()
	// The GEMM engine instruments through the same chip-level spans
	// and counters as the conv path (internal/core is inside the
	// rule's scope): tile telemetry counts PLCU cycles, and the
	// replay gate hashes results whose spans must not embed wall time.
	got := fixture(t, "gemmobs.go", "internal/core/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"12: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
		"13: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
	})
}

func TestObsDeterminismCoversShard(t *testing.T) {
	t.Parallel()
	// The kernel-group fan-out instruments through the same registry
	// as whole-request serving (internal/fleet is inside the rule's
	// scope): fan-out counters and per-window stage stamps are
	// virtual-tick-denominated, and the golden bit-identity tests
	// compare the snapshots they feed.
	got := fixture(t, "shardobs.go", "internal/fleet/fixture.go", []*Rule{ObsDeterminism()})
	assertFindings(t, got, []string{
		"13: [obs-determinism] time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)",
		"16: [obs-determinism] time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary",
	})
}

func TestUnitSafetyGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "unitsafety.go", "internal/photonics/fixture.go", []*Rule{UnitSafety()})
	assertFindings(t, got, []string{
		"6: [unit-safety] bare SI literal 1.380649e-23: use units.Boltzmann",
		"8: [unit-safety] bare SI literal 1e-9: use units.Nano",
		`11: [unit-safety] arithmetic mixes dB-named "lossDB" with linear-named "powerWatts"; convert with units.DBToLinear/units.LinearToDB first`,
		"12: [unit-safety] bare SI literal 12.5e9: use 12.5 * units.Giga",
		// Line 14's 1e-6 is suppressed with a reason.
	})
}

func TestUnitSafetyOutOfScope(t *testing.T) {
	t.Parallel()
	// internal/units defines the constants; tensor is not a physics
	// package; tests are exempt.
	for _, rel := range []string{"internal/units/units.go", "internal/tensor/fixture.go", "internal/photonics/fixture_test.go"} {
		if got := fixture(t, "unitsafety.go", rel, []*Rule{UnitSafety()}); len(got) != 0 {
			t.Errorf("relpath %s: want no findings, got %q", rel, got)
		}
	}
}

func TestFloatEqualityGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "floateq.go", "internal/core/fixture.go", []*Rule{FloatEquality()})
	assertFindings(t, got, []string{
		"8: [float-equality] floating-point == comparison; use a tolerance (math.Abs(a-b) <= eps) or compare integer representations",
		"11: [float-equality] floating-point != comparison; use a tolerance (math.Abs(a-b) <= eps) or compare integer representations",
		// Line 14 compares ints, line 17 compares bools, line 21 is
		// suppressed.
		"24: [float-equality] floating-point == comparison; use a tolerance (math.Abs(a-b) <= eps) or compare integer representations",
	})
}

func TestFloatEqualityExemptInTests(t *testing.T) {
	t.Parallel()
	if got := fixture(t, "floateq.go", "internal/core/fixture_test.go", []*Rule{FloatEquality()}); len(got) != 0 {
		t.Errorf("want no findings in _test.go, got %q", got)
	}
}

func TestExitHygieneGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "exithygiene.go", "internal/core/fixture.go", []*Rule{ExitHygiene()})
	assertFindings(t, got, []string{
		"13: [exit-hygiene] os.Exit in library code; only cmd/ mains may exit the process",
		"16: [exit-hygiene] log.Fatalf terminates the process from library code; return an error instead",
		"19: [exit-hygiene] panic in library code; return an error to the caller",
		// Line 26's panic carries a trailing suppression.
	})
}

func TestExitHygieneAllowedInCmd(t *testing.T) {
	t.Parallel()
	if got := fixture(t, "exithygiene.go", "cmd/albireo-sim/main.go", []*Rule{ExitHygiene()}); len(got) != 0 {
		t.Errorf("want no findings under cmd/, got %q", got)
	}
}

func TestGoroutineHygieneGolden(t *testing.T) {
	t.Parallel()
	got := fixture(t, "goroutine.go", "internal/core/fixture.go", []*Rule{GoroutineHygiene()})
	assertFindings(t, got, []string{
		"9: [goroutine-hygiene] go statement with no WaitGroup or channel synchronization in the enclosing function; join the goroutine or document why not",
		// joined() and channelJoined() show evidence; line 32 is
		// suppressed.
	})
}

func TestGoroutineHygieneIsWarnLevel(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	f, err := ParseFile(fset, filepath.Join("testdata", "goroutine.go"), "internal/core/fixture.go")
	if err != nil {
		t.Fatal(err)
	}
	findings := CheckModule(&Module{Fset: fset, Files: []*File{f}}, []*Rule{GoroutineHygiene()})
	if len(findings) == 0 {
		t.Fatal("want at least one finding")
	}
	for _, fd := range findings {
		if fd.Severity != Warn {
			t.Errorf("finding %v: severity %v, want Warn", fd, fd.Severity)
		}
	}
}

func TestSISuggestion(t *testing.T) {
	t.Parallel()
	cases := []struct {
		lit  string
		want string
		ok   bool
	}{
		{"1e9", "units.Giga", true},
		{"1e-9", "units.Nano", true},
		{"1.0e6", "units.Mega", true},
		{"1e+12", "units.Tera", true},
		{"5e9", "5 * units.Giga", true},
		{"12.5e-3", "12.5 * units.Milli", true},
		{"1.380649e-23", "units.Boltzmann", true},
		{"1.602176634e-19", "units.ElementaryCharge", true},
		{"2.99792458e8", "units.LightSpeed", true},
		{"1e4", "", false},   // not an SI prefix step
		{"1e-21", "", false}, // beyond the named prefixes
		{"0.25", "", false},  // no exponent
		{"1e100", "", false},
	}
	for _, c := range cases {
		got, ok := siSuggestion(c.lit)
		if ok != c.ok || got != c.want {
			t.Errorf("siSuggestion(%q) = %q, %v; want %q, %v", c.lit, got, ok, c.want, c.ok)
		}
	}
}

func TestDefaultRuleNamesUnique(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, r := range Default() {
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Doc == "" {
			t.Errorf("rule %q has no doc", r.Name)
		}
	}
}

// TestRepositoryClean is the contract test: the albireo tree itself
// must stay free of error-severity findings. A regression here means
// a change reintroduced global randomness, bare SI literals, float
// equality, or a library exit without either fixing it or justifying
// a suppression.
func TestRepositoryClean(t *testing.T) {
	t.Parallel()
	findings, err := Run(filepath.Join("..", ".."), Default())
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	for _, fd := range findings {
		if fd.Severity == Error {
			t.Errorf("%s", fd)
		}
	}
}

// The hot-path allocation proof is a module rule; its golden tests
// load the self-contained fixture module under testdata/mod and live
// in hotalloc_test.go (with lockorder_test.go and maporder_test.go
// for the other module rules, and callgraph_test.go for the graph).
