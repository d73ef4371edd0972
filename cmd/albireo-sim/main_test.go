package main

import (
	"strings"
	"testing"
)

func TestRunUnknownModel(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-model", "LeNet99"}, &out); err == nil {
		t.Fatal("want error for unknown model, got nil")
	}
}

func TestRunUnknownEstimate(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-estimate", "Z"}, &out); err == nil {
		t.Fatal("want error for unknown estimate, got nil")
	}
}

func TestRunSmoke(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-model", "AlexNet", "-layers"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"AlexNet on Albireo-C", "latency:", "per-layer analysis:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
