package lint

import (
	"go/ast"
	"testing"
)

// TestHotPathAllocProofGolden walks the fixture module from its
// //hot: roots (hot.Step and hot.Spaced, both marked in the "// hot:"
// form gofmt writes) and checks the full interprocedural finding set:
// allocation in an interface implementation (DirtySummer.Sum), in a
// static callee (direct), in an address-taken function reached
// through a func-value call (Square), and in a root itself (Spaced).
// The append behind a reasoned //lint:ignore and the alloc-free
// itoa/CleanSummer paths must stay silent, as must New's cold-path
// literals.
func TestHotPathAllocProofGolden(t *testing.T) {
	got := moduleFindings(t, []*Rule{HotPathAllocProof()})
	assertFindings(t, got, []string{
		"internal/hot/hot.go:31: [hotpath-alloc-proof] make() allocates in Sum, reachable from //hot: path Step -> Sum",
		"internal/hot/hot.go:50: [hotpath-alloc-proof] make() allocates in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:51: [hotpath-alloc-proof] append() may grow past capacity and allocate in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:52: [hotpath-alloc-proof] string concatenation allocates in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:53: [hotpath-alloc-proof] variadic call packs arguments into a new slice in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:53: [hotpath-alloc-proof] call to fmt.Println allocates, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:53: [hotpath-alloc-proof] interface boxing of concrete argument allocates in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:54: [hotpath-alloc-proof] closure literal allocates in direct, reachable from //hot: path Step -> direct",
		"internal/hot/hot.go:66: [hotpath-alloc-proof] slice literal allocates in Square, reachable from //hot: path Step -> Square",
		"internal/hot/hot.go:89: [hotpath-alloc-proof] make() allocates in Spaced, reachable from //hot: path Spaced",
	})
}

// TestHotMarkedForms pins both spellings of the root marker: the
// "//hot:" form as written and the "// hot:" form gofmt rewrites it
// to, so formatting the tree cannot silently drop every root.
func TestHotMarkedForms(t *testing.T) {
	t.Parallel()
	for text, want := range map[string]bool{
		"//hot: per-cycle":  true,
		"// hot: per-cycle": true,
		"// hotness":        false,
		"// not hot: here":  false,
	} {
		doc := &ast.CommentGroup{List: []*ast.Comment{{Text: "// doc line"}, {Text: text}}}
		if got := hotMarked(doc); got != want {
			t.Errorf("hotMarked(%q) = %v, want %v", text, got, want)
		}
	}
}

// TestHotPathAllocProofPanicExempt pins the panic carve-out: direct's
// invariant panic formats its message with fmt.Sprintf, and no
// finding lands on that line (56) - a panicking path has left the
// steady state.
func TestHotPathAllocProofPanicExempt(t *testing.T) {
	for _, fd := range CheckModule(fixtureModule(t), []*Rule{HotPathAllocProof()}) {
		if fd.Pos.Filename == "internal/hot/hot.go" && fd.Pos.Line == 56 {
			t.Errorf("finding inside panic arguments: %s", fd)
		}
	}
}

// TestHotPathAllocProofSeverity pins the promotion from the old
// advisory heuristic to a build-failing proof.
func TestHotPathAllocProofSeverity(t *testing.T) {
	t.Parallel()
	if sev := HotPathAllocProof().Severity; sev != Error {
		t.Fatalf("hotpath-alloc-proof severity = %v, want Error", sev)
	}
}
