package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Default returns the full albireo rule set.
func Default() []*Rule {
	return []*Rule{
		Determinism(),
		ObsDeterminism(),
		UnitSafety(),
		FloatEquality(),
		ExitHygiene(),
		GoroutineHygiene(),
		HotPathAllocProof(),
		LockOrder(),
		MapIterationOrder(),
		Unreachable(),
	}
}

// shadowed reports whether an identifier used in package-selector
// position actually resolves to a local declaration (a variable named
// like the package) rather than the import. With type information the
// answer is exact: the identifier either Uses a *types.PkgName or it
// does not. Without it (standalone-parsed file) the old go/ast object
// heuristic is the fallback.
func (f *File) shadowed(id *ast.Ident) bool {
	if f.Info != nil {
		if obj, ok := f.Info.Uses[id]; ok {
			_, isPkg := obj.(*types.PkgName)
			return !isPkg
		}
		// Unresolved identifier in a checked file: not a package name.
		return true
	}
	return id.Obj != nil && id.Obj.Kind != ast.Pkg
}

// isBuiltin reports whether the identifier resolves to a Go builtin
// (make, append, panic, close, ...) rather than a shadowing local
// declaration. Exact under type information; syntactic Obj check as
// the standalone-parse fallback.
func (f *File) isBuiltin(id *ast.Ident) bool {
	if f.Info != nil {
		if obj, ok := f.Info.Uses[id]; ok {
			_, isBuiltin := obj.(*types.Builtin)
			return isBuiltin
		}
		// panic() and friends resolve through Uses; an absent entry in
		// a checked file means a declaration or an unresolved name.
		return false
	}
	return id.Obj == nil
}

// simulationFile reports whether the file is part of the simulator
// library proper (everything under internal/ except the lint tooling
// itself).
func simulationFile(f *File) bool {
	return f.InPackage("internal") && !f.InPackage("internal/lint") && !f.IsTest
}

// physicsPackages are the packages whose numbers carry physical
// dimensions, and which therefore must spell SI scale factors through
// internal/units. internal/units itself defines the constants and is
// exempt.
var physicsPackages = []string{
	"internal/photonics",
	"internal/noise",
	"internal/circuit",
	"internal/device",
	"internal/waveform",
	"internal/memory",
	"internal/perf",
	"internal/baseline",
	"internal/sim",
	"internal/control",
	"internal/core",
	"internal/experiments",
}

// forbiddenRandFuncs are the package-level math/rand (and v2)
// functions that draw from the shared global source. Constructors
// (New, NewSource, NewZipf, NewPCG, NewChaCha8) stay allowed: they are
// exactly how a deterministic injected stream is built.
var forbiddenRandFuncs = map[string]bool{
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// Determinism forbids the global math/rand functions and time.Now in
// simulation packages. Every stochastic quantity must flow from an
// injected, seeded *rand.Rand (the noise.Params.Sample pattern) so
// that Conv stays bit-identical on any number of lanes and every run is
// reproducible from its seed.
func Determinism() *Rule {
	return &Rule{
		Name:     "determinism",
		Doc:      "forbid global math/rand functions and time.Now() in internal/ simulation packages; inject a seeded *rand.Rand instead",
		Severity: Error,
		Applies:  simulationFile,
		Check: func(f *File, r *Reporter) {
			randName := f.ImportName("math/rand")
			randV2Name := f.ImportName("math/rand/v2")
			timeName := f.ImportName("time")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || f.shadowed(pkg) {
					return true
				}
				switch {
				case (pkg.Name == randName && randName != "") || (pkg.Name == randV2Name && randV2Name != ""):
					if sel.Sel.Name == "Seed" {
						r.Reportf(call.Pos(), "rand.Seed mutates the global source; build a private stream with rand.New(rand.NewSource(seed)) instead")
					} else if forbiddenRandFuncs[sel.Sel.Name] {
						r.Reportf(call.Pos(), "global rand.%s call breaks reproducibility; draw from an injected seeded *rand.Rand (see noise.Params.Sample)", sel.Sel.Name)
					}
				case pkg.Name == timeName && timeName != "" && sel.Sel.Name == "Now":
					r.Reportf(call.Pos(), "time.Now() in simulation code makes runs irreproducible; thread timestamps in as parameters")
				}
				return true
			})
		},
	}
}

// ObsDeterminism enforces the observability determinism contract:
// telemetry recorded by internal/ packages must be denominated in
// simulation cycles and event counts, never wall time, so that
// identical inputs always record bit-identical metrics (the
// one-lane/many-lane snapshot-equality invariant). Wall time enters
// the system only at the cmd boundary through an injected obs.Clock;
// internal/obs itself hosts that boundary (WallClock) and is exempt.
// Unlike the determinism rule, this also flags time.Since - a wall
// clock read disguised as a duration - because "how long did this
// take" is exactly the measurement an instrumentation site is tempted
// to record.
func ObsDeterminism() *Rule {
	return &Rule{
		Name:     "obs-determinism",
		Doc:      "internal/ instrumentation must be cycle/event-denominated: no time.Now() or time.Since(); stamp events with simulation cycles, and inject obs.Clock at the cmd boundary for wall time",
		Severity: Error,
		Applies: func(f *File) bool {
			return f.InPackage("internal") && !f.InPackage("internal/obs") &&
				!f.InPackage("internal/lint") && !f.IsTest
		},
		Check: func(f *File, r *Reporter) {
			timeName := f.ImportName("time")
			if timeName == "" {
				return
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || f.shadowed(pkg) || pkg.Name != timeName {
					return true
				}
				switch sel.Sel.Name {
				case "Now":
					r.Reportf(call.Pos(), "time.Now() at an instrumentation site; record simulation cycles or event counts, and take wall time only from an injected obs.Clock at the cmd boundary")
				case "Since":
					r.Reportf(call.Pos(), "time.Since() reads the wall clock; telemetry must be cycle-denominated (use obs.Span.EndAt with a cycle stamp, or an injected obs.Clock at the cmd boundary)")
				}
				return true
			})
		},
	}
}

// siPrefixNames maps a power-of-ten exponent to the internal/units
// constant that spells it.
var siPrefixNames = map[int]string{
	12: "Tera", 9: "Giga", 6: "Mega", 3: "Kilo",
	-3: "Milli", -6: "Micro", -9: "Nano", -12: "Pico",
	-15: "Femto", -18: "Atto",
}

// knownConstants maps literal spellings of physical constants to the
// internal/units name that must be used instead.
var knownConstants = map[string]string{
	"1.380649e-23":    "Boltzmann",
	"1.38e-23":        "Boltzmann",
	"1.602176634e-19": "ElementaryCharge",
	"1.6e-19":         "ElementaryCharge",
	"2.99792458e8":    "LightSpeed",
	"3e8":             "LightSpeed",
}

// siSuggestion inspects a float literal's source text and, if it is a
// bare SI scale factor (1e-9, 5e9, 12.5e6, ...) or a known physical
// constant, returns the units-package replacement to suggest.
func siSuggestion(lit string) (string, bool) {
	l := strings.ToLower(strings.ReplaceAll(lit, "_", ""))
	if strings.HasPrefix(l, "0x") {
		return "", false
	}
	if name, ok := knownConstants[l]; ok {
		return "units." + name, true
	}
	i := strings.IndexByte(l, 'e')
	if i < 0 {
		return "", false
	}
	mantissa, expStr := l[:i], l[i+1:]
	expStr = strings.TrimPrefix(expStr, "+")
	var exp int
	if _, err := fmt.Sscanf(expStr, "%d", &exp); err != nil {
		return "", false
	}
	name, ok := siPrefixNames[exp]
	if !ok {
		return "", false
	}
	if mantissa == "1" || mantissa == "1.0" {
		return "units." + name, true
	}
	return mantissa + " * units." + name, true
}

// dbNamed reports whether an identifier's name says the value is in
// decibels (LossDB, SpreadDB, RINdBcHz, powerDBm, ...).
func dbNamed(name string) bool {
	for _, suffix := range []string{"DB", "Db", "dB", "DBm", "dBm", "Dbm"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return strings.Contains(name, "dBc") || strings.Contains(name, "DBc") ||
		strings.Contains(name, "dBm") || strings.Contains(name, "DBm")
}

// linearNamed reports whether an identifier's name says the value is a
// linear-domain quantity (watts, transmission fraction, power ratio).
func linearNamed(name string) bool {
	l := strings.ToLower(name)
	for _, marker := range []string{"watt", "linear", "transmission", "ratio", "photocurrent"} {
		if strings.Contains(l, marker) {
			return true
		}
	}
	return false
}

// exprName extracts the identifier name an operand is known by: the
// ident itself or the field of a selector. "" when the operand has no
// simple name.
func exprName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return exprName(v.X)
	}
	return ""
}

// UnitSafety flags bare SI-prefix literals and physical constants in
// physics packages (use units.Nano, units.Boltzmann, ...) and
// arithmetic that mixes dB-named identifiers with linear-named ones
// without an explicit conversion.
func UnitSafety() *Rule {
	return &Rule{
		Name:     "unit-safety",
		Doc:      "physics packages must spell SI scale factors and physical constants via internal/units, and must not mix dB-named and linear-named values in arithmetic",
		Severity: Error,
		Applies: func(f *File) bool {
			if f.IsTest {
				return false
			}
			for _, pkg := range physicsPackages {
				if f.InPackage(pkg) {
					return true
				}
			}
			return false
		},
		Check: func(f *File, r *Reporter) {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.BasicLit:
					if v.Kind != token.FLOAT {
						return true
					}
					if sug, ok := siSuggestion(v.Value); ok {
						r.Reportf(v.Pos(), "bare SI literal %s: use %s", v.Value, sug)
					}
				case *ast.BinaryExpr:
					switch v.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
					default:
						return true
					}
					xn, yn := exprName(v.X), exprName(v.Y)
					if (dbNamed(xn) && linearNamed(yn)) || (dbNamed(yn) && linearNamed(xn)) {
						r.Reportf(v.Pos(), "arithmetic mixes dB-named %q with linear-named %q; convert with units.DBToLinear/units.LinearToDB first", xn, yn)
					}
				}
				return true
			})
		},
	}
}

// nonFloatMathFuncs are math-package functions that return a bool or
// an integer, not a float, and so are fine to compare with == / !=.
// Float64bits/Float32bits comparisons are in fact the sanctioned way
// to test bit-identity.
var nonFloatMathFuncs = map[string]bool{
	"IsNaN": true, "IsInf": true, "Signbit": true,
	"Float64bits": true, "Float32bits": true, "Ilogb": true,
}

// floatExpr is the syntactic heuristic for "this expression is a
// float": a float literal, a float conversion, a math-package call, or
// any arithmetic over one of those. Identifiers are opaque without
// type information, so comparisons between two plainly-named float
// variables are not caught - the rule targets the common literal and
// math.* forms.
func floatExpr(f *File, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Kind == token.FLOAT
	case *ast.ParenExpr:
		return floatExpr(f, v.X)
	case *ast.UnaryExpr:
		return floatExpr(f, v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return floatExpr(f, v.X) || floatExpr(f, v.Y)
		}
		return false
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && (id.Name == "float64" || id.Name == "float32") {
			return true
		}
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "math" && !f.shadowed(pkg) && !nonFloatMathFuncs[sel.Sel.Name] {
				return true
			}
		}
	}
	return false
}

// FloatEquality flags == and != between floating-point expressions
// outside test files: exact comparison of analog quantities is almost
// always a tolerance bug.
func FloatEquality() *Rule {
	return &Rule{
		Name:     "float-equality",
		Doc:      "flag ==/!= on floating-point expressions outside _test.go; compare with a tolerance instead",
		Severity: Error,
		Applies:  func(f *File) bool { return !f.IsTest },
		Check: func(f *File, r *Reporter) {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if floatExpr(f, be.X) || floatExpr(f, be.Y) {
					r.Reportf(be.Pos(), "floating-point %s comparison; use a tolerance (math.Abs(a-b) <= eps) or compare integer representations", be.Op)
				}
				return true
			})
		},
	}
}

// fatalLogFuncs are the log-package functions that terminate the
// process.
var fatalLogFuncs = map[string]bool{
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// ExitHygiene forbids process-terminating calls (os.Exit, log.Fatal*,
// panic) in internal/ library packages. Only cmd/ binaries own the
// exit; libraries return errors. Invariant checks on programmer error
// may stay as panics behind a //lint:ignore with a stated reason.
func ExitHygiene() *Rule {
	return &Rule{
		Name:     "exit-hygiene",
		Doc:      "internal/ libraries must not call os.Exit, log.Fatal*, log.Panic*, or panic; return errors (suppress with a reason for true invariants)",
		Severity: Error,
		Applies:  func(f *File) bool { return f.InPackage("internal") && !f.IsTest },
		Check: func(f *File, r *Reporter) {
			osName := f.ImportName("os")
			logName := f.ImportName("log")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "panic" && f.isBuiltin(fun) {
						r.Reportf(call.Pos(), "panic in library code; return an error to the caller")
					}
				case *ast.SelectorExpr:
					pkg, ok := fun.X.(*ast.Ident)
					if !ok || f.shadowed(pkg) {
						return true
					}
					if pkg.Name == osName && osName != "" && fun.Sel.Name == "Exit" {
						r.Reportf(call.Pos(), "os.Exit in library code; only cmd/ mains may exit the process")
					}
					if pkg.Name == logName && logName != "" && fatalLogFuncs[fun.Sel.Name] {
						r.Reportf(call.Pos(), "log.%s terminates the process from library code; return an error instead", fun.Sel.Name)
					}
				}
				return true
			})
		},
	}
}

// concurrencyEvidence reports whether a function body shows any sign
// of joining or communicating with the goroutines it launches:
// WaitGroup calls, channel types or operations, select statements, or
// close calls.
func concurrencyEvidence(f *File, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectorExpr:
			switch v.Sel.Name {
			case "Add", "Done", "Wait":
				found = true
			}
		case *ast.ChanType, *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel is a join; over a slice it is
			// harmless noise for this heuristic.
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "close" && f.isBuiltin(id) {
				found = true
			}
		}
		return !found
	})
	return found
}

// GoroutineHygiene is the warn-level heuristic for fire-and-forget
// goroutines: a go statement whose enclosing function shows no
// WaitGroup or channel synchronization is probably leaking work the
// caller cannot observe - and, in this simulator, racing the
// deterministic noise streams.
func GoroutineHygiene() *Rule {
	return &Rule{
		Name:     "goroutine-hygiene",
		Doc:      "warn on go statements with no WaitGroup/channel synchronization anywhere in the enclosing function (heuristic)",
		Severity: Warn,
		Applies:  func(f *File) bool { return !f.IsTest },
		Check: func(f *File, r *Reporter) {
			var stack []ast.Node
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if g, ok := n.(*ast.GoStmt); ok {
					if body := enclosingFuncBody(stack); body != nil && !concurrencyEvidence(f, body) {
						r.Reportf(g.Pos(), "go statement with no WaitGroup or channel synchronization in the enclosing function; join the goroutine or document why not")
					}
				}
				stack = append(stack, n)
				return true
			})
		},
	}
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on the node stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.FuncDecl:
			return v.Body
		case *ast.FuncLit:
			return v.Body
		}
	}
	return nil
}

// hotMarked reports whether a doc comment contains a //hot: line. A
// function so marked declares itself per-cycle code under the
// zero-allocation contract; the hotpath-alloc-proof module rule
// (hotalloc.go) uses the marks as call-graph roots. gofmt rewrites
// "//hot: text" to "// hot: text" (it is not a directive), so both
// spellings mark a root.
func hotMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//hot:") || strings.HasPrefix(c.Text, "// hot:") {
			return true
		}
	}
	return false
}
