package main

import (
	"strings"
	"testing"
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
