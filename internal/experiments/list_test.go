package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
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
	if len(seen) != 32 {
		t.Errorf("All lists %d experiments, want 32", len(seen))
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

// TestDocsQuoteEntries reads EXPERIMENTS.md. In every section that
// names `albireo-figures -only <id>`, each number of a "Measured" or
// "Ours" table cell must appear, with the same printed digits, in the
// text of an entry the section names. An entry runs only when a
// section with such a cell cites it.
func TestDocsQuoteEntries(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]Experiment{}
	for _, e := range All() {
		exps[e.Name] = e
	}
	cite := regexp.MustCompile("albireo-figures -only ([a-z0-9]+)")
	number := regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
	checked := 0
	for _, section := range strings.Split(string(raw), "\n## ")[1:] {
		heading, _, _ := strings.Cut(section, "\n")
		var printed map[string]bool // the cited entries' numbers, on first need
		var cols []int              // the current table's checked columns; nil outside a table
		for _, line := range strings.Split(section, "\n") {
			if !strings.HasPrefix(line, "|") {
				cols = nil
				continue
			}
			cells := strings.Split(line, "|")
			if cols == nil {
				cols = []int{}
				for i, c := range cells {
					if c = strings.TrimSpace(c); c == "Measured" || strings.HasPrefix(c, "Ours") {
						cols = append(cols, i)
					}
				}
				continue
			}
			if len(cols) > 0 && printed == nil {
				printed = map[string]bool{}
				for _, m := range cite.FindAllStringSubmatch(section, -1) {
					if e, ok := exps[m[1]]; ok {
						_, text := e.Run()
						for _, n := range number.FindAllString(text, -1) {
							printed[n] = true
						}
					}
				}
			}
			if len(printed) == 0 {
				continue // a section citing no entry
			}
			for _, i := range cols {
				if i >= len(cells) {
					t.Errorf("EXPERIMENTS.md %q: row %q has no column %d", heading, line, i)
					continue
				}
				for _, n := range number.FindAllString(cells[i], -1) {
					checked++
					if !printed[n] {
						t.Errorf("EXPERIMENTS.md %q, row %q: %s is printed by no entry the section cites",
							heading, strings.TrimSpace(cells[1]), n)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no Measured or Ours cell to check")
	}
}
