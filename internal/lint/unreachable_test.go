package lint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestUnreachableGolden runs the rule over the fixture module under
// testdata/reach, whose only root is cmd/app's main. Each live case
// needs one semantic and would be reported without it: fromVar (a var
// initializer), initOnly (an init), Rot.Shift and rotate (a method
// value handed to strings.Map), Label.String (called by fmt) and
// Square.Area (interface dispatch). Only the dead function, the dead
// method of a live type, and the directive without a reason remain.
func TestUnreachableGolden(t *testing.T) {
	t.Parallel()
	m, err := LoadModule(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	var got []string
	for _, fd := range CheckModule(m, []*Rule{Unreachable()}) {
		got = append(got, fmt.Sprintf("%s:%d: %s", fd.Pos.Filename, fd.Pos.Line, fd.Message))
	}
	const advice = " is reached from no main; delete it, give it a production caller, or keep it with //lint:ignore unreachable naming the test that uses it"
	assertFindings(t, got, []string{
		"lib/lib.go:29: Label.Unused" + advice,
		"lib/lib.go:50: Dead" + advice,
		"lib/lib.go:56: NoReason" + advice,
	})
}

// TestUnreachableIsDefaultError pins the gate: the rule ships in the
// default set at error severity.
func TestUnreachableIsDefaultError(t *testing.T) {
	t.Parallel()
	for _, r := range Default() {
		if r.Name == "unreachable" {
			if r.Severity != Error {
				t.Fatalf("unreachable severity = %v, want error", r.Severity)
			}
			return
		}
	}
	t.Fatal("unreachable is not in Default()")
}
