package main

import (
	"os"
	"path/filepath"
	"regexp"
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

// TestRunJSONDeterministic runs the JSON output twice: the committed
// RESULTS.json gate stands on its byte identity. TestRunEveryName
// covers the text, computed twice there.
func TestRunJSONDeterministic(t *testing.T) {
	t.Parallel()
	var first, second strings.Builder
	if err := run([]string{"-json"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-json"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("-json is not byte-identical across two runs")
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
