package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	exps := []Experiment{entry("table1", TableI, FormatTableI), entry("fig8", Fig8, FormatFig8)}
	if err := WriteJSON(&buf, exps); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Table1 []TableIRow
		Fig8   []Fig8Row
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Table1) != 6 || back.Table1[0].Device != "MRR" || len(back.Fig8) != 16 {
		t.Error("JSON round trip mismatch")
	}
	if !strings.HasPrefix(buf.String(), "{\n  \"table1\": [") {
		t.Errorf("entries must be keyed by name in list order:\n%.40s", buf.String())
	}
}

func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("experiment name %q is empty or repeated", e.Name)
		}
		seen[e.Name] = true
	}
	if len(seen) != 24 {
		t.Errorf("All lists %d experiments, want 24", len(seen))
	}
}

// TestActivityEntryMatchesAnalyticModel checks what the activity entry
// prints: every device class's observed event count equals the
// closed-form activity model's.
func TestActivityEntryMatchesAnalyticModel(t *testing.T) {
	for _, e := range All() {
		if e.Name != "activity" {
			continue
		}
		_, text := e.Run()
		if !strings.Contains(text, "observed activity matches the analytic model exactly") ||
			strings.Contains(text, "MISMATCH") {
			t.Errorf("observed activity disagrees with the analytic model:\n%s", text)
		}
		return
	}
	t.Fatal("no activity entry")
}
