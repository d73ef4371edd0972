package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"albireo/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-only", "table1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "==== table1 ====") {
		t.Errorf("output missing table1 header:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-only", "fig999"}, &out); err == nil {
		t.Fatal("want error for unknown experiment, got nil")
	}
}

// TestRunProductionStudies runs once each beyond-the-paper study whose
// only entry point is this command: the tiling, ISI and ring-lock
// results EXPERIMENTS.md cites.
func TestRunProductionStudies(t *testing.T) {
	t.Parallel()
	for name, want := range map[string]string{
		"tiling":   "VGG16: 8 tiled layers",
		"isi":      "k^2=0.03",
		"ringlock": "sat=false",
	} {
		var out strings.Builder
		if err := run([]string{"-only", name}, &out); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "==== "+name+" ====") || !strings.Contains(out.String(), want) {
			t.Errorf("%s output missing %q:\n%s", name, want, out.String())
		}
	}
}

// TestRunEveryName runs -only for every entry of the list: each name
// is accepted, and the single runs, concatenated, are byte-identical
// to a second, full run.
func TestRunEveryName(t *testing.T) {
	t.Parallel()
	var each, all strings.Builder
	for _, e := range experiments.All() {
		if err := run([]string{"-only", e.Name}, &each); err != nil {
			t.Fatalf("run -only %s: %v", e.Name, err)
		}
	}
	if err := run(nil, &all); err != nil {
		t.Fatal(err)
	}
	if each.String() != all.String() {
		t.Error("the -only outputs, concatenated, differ from the full run")
	}
}

// TestRunJSONDeterministic runs the JSON output once and requires the
// committed RESULTS.json byte for byte: the results gate in check.sh
// in test form, and a stronger determinism check than two fresh runs
// agreeing (the file is recorded on linux/amd64, the CI platform).
// TestRunEveryName covers the text, computed twice there.
func TestRunJSONDeterministic(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("..", "..", "RESULTS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run([]string{"-json"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Error("-json differs from the committed RESULTS.json; re-record it after an intended change")
	}
}

// TestDocsCiteEntries checks that every `albireo-figures -only <id>`
// the documents cite names an entry of the list.
func TestDocsCiteEntries(t *testing.T) {
	t.Parallel()
	names := map[string]bool{}
	for _, e := range experiments.All() {
		names[e.Name] = true
	}
	cite := regexp.MustCompile(`albireo-figures -only ([^\s` + "`" + `,)]+)`)
	for _, doc := range []string{"EXPERIMENTS.md", "README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(raw), -1) {
			if id := m[1]; id != "<id>" && !names[id] {
				t.Errorf("%s cites albireo-figures -only %s, which names no experiment", doc, id)
			}
		}
	}
}

// TestDocsTableIVMatchesResults reads the Albireo cells of
// EXPERIMENTS.md's Table IV "Measured" column and compares each number
// with the committed RESULTS.json table4 entry at the printed
// precision: these are the cells MapLayer drives.
func TestDocsTableIVMatchesResults(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile(filepath.Join("..", "..", "RESULTS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var results struct {
		Table4 []map[string]any `json:"table4"`
	}
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Table IV")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Table IV section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	measured := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) == 5 {
			measured[strings.TrimSpace(cells[1])] = cells[3]
		}
	}
	// The row label, the table4 row, and the fields its numbers
	// print in order; latency and energy print in ms and mJ.
	rows := []struct {
		label, model, design string
		fields               []string
	}{
		{"AlexNet Albireo-C latency / energy", "AlexNet", "Albireo-C", []string{"Latency", "Energy"}},
		{"VGG16 Albireo-C latency / energy", "VGG16", "Albireo-C", []string{"Latency", "Energy"}},
		{"VGG16 Albireo-M energy", "VGG16", "Albireo-M", []string{"Energy"}},
		{"VGG16 Albireo-A latency / energy", "VGG16", "Albireo-A", []string{"Latency", "Energy"}},
		{"AlexNet GOPS/mm² (C)", "AlexNet", "Albireo-C", []string{"GOPSPerMM2"}},
		{"VGG16 GOPS/mm² (C)", "VGG16", "Albireo-C", []string{"GOPSPerMM2"}},
		{"VGG16 GOPS/W/mm² (C)", "VGG16", "Albireo-C", []string{"GOPSPerWattPerMM2"}},
	}
	number := regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
	for _, r := range rows {
		cell, ok := measured[r.label]
		if !ok {
			t.Errorf("EXPERIMENTS.md Table IV has no row %q", r.label)
			continue
		}
		var row map[string]any
		for _, e := range results.Table4 {
			if e["Model"] == r.model && e["Design"] == r.design {
				row = e
			}
		}
		nums := number.FindAllStringSubmatch(cell, -1)
		if row == nil || len(nums) != len(r.fields) {
			t.Errorf("%s: cell %q does not pair with table4 %s %s %v", r.label, cell, r.model, r.design, r.fields)
			continue
		}
		for i, f := range r.fields {
			v, _ := row[f].(float64)
			if f == "Latency" || f == "Energy" {
				v *= 1e3
			}
			decimals := max(len(nums[i][1])-1, 0)
			if want := strconv.FormatFloat(v, 'f', decimals, 64); nums[i][0] != want {
				t.Errorf("%s: EXPERIMENTS.md prints %s %s, RESULTS.json gives %s", r.label, f, nums[i][0], want)
			}
		}
	}
}
