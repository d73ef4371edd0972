package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albireo/internal/lint"
)

// fixtureTarget points the CLI at the lint package's fixture module,
// which deliberately contains findings for every module rule.
const fixtureTarget = "../../internal/lint/testdata/mod/..."

func TestRunFindingsFailAndPrint(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{fixtureTarget}, &out, &errOut)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run = %v, want errFindings", err)
	}
	for _, want := range []string{
		"[hotpath-alloc-proof]",
		"[lock-order]",
		"[map-iteration-determinism]",
		"[unreachable]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %s findings:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "error(s)") {
		t.Errorf("stderr missing summary: %q", errOut.String())
	}
}

func TestRunJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.out")
	var out, errOut bytes.Buffer
	err := run([]string{"-json", path, fixtureTarget}, &out, &errOut)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run = %v, want errFindings", err)
	}
	data, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("read artifact: %v", readErr)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if report.Errors == 0 || len(report.Findings) != report.Errors+report.Warnings {
		t.Errorf("report counts inconsistent: %d findings, %d errors, %d warnings",
			len(report.Findings), report.Errors, report.Warnings)
	}
	rules := map[string]bool{}
	for _, f := range report.Findings {
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		rules[f.Rule] = true
	}
	for _, want := range []string{"hotpath-alloc-proof", "lock-order", "map-iteration-determinism"} {
		if !rules[want] {
			t.Errorf("JSON report missing rule %s", want)
		}
	}
	// Text findings still go to stdout alongside the artifact.
	if !strings.Contains(out.String(), "[lock-order]") {
		t.Error("text output suppressed when -json writes to a file")
	}
}

func TestRunJSONToStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-json", "-", fixtureTarget}, &out, &errOut)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run = %v, want errFindings", err)
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not pure JSON with -json -: %v\n%s", err, out.String())
	}
}

func TestSeverityOverride(t *testing.T) {
	// Demoting every module rule to warn makes the fixture run pass
	// without -strict.
	var out, errOut bytes.Buffer
	args := []string{
		"-severity", "hotpath-alloc-proof=warn,lock-order=warn,map-iteration-determinism=warn,unreachable=warn",
		fixtureTarget,
	}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run with demoted severities = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "(warn)") {
		t.Error("demoted findings should print as warnings")
	}
	// And -strict flips it back to failing.
	out.Reset()
	errOut.Reset()
	if err := run(append([]string{"-strict"}, args...), &out, &errOut); !errors.Is(err, errFindings) {
		t.Fatalf("strict run = %v, want errFindings", err)
	}
}

func TestSeverityOverrideValidation(t *testing.T) {
	cases := []string{"nonsense", "no-such-rule=warn", "lock-order=fatal"}
	for _, spec := range cases {
		if err := applySeverities(spec, lint.Default()); err == nil {
			t.Errorf("applySeverities(%q) = nil, want error", spec)
		}
	}
	if err := applySeverities("goroutine-hygiene=error, lock-order=warn", lint.Default()); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRulesListing(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-rules"}, &out, &errOut); err != nil {
		t.Fatalf("run -rules = %v", err)
	}
	for _, want := range []string{"hotpath-alloc-proof", "lock-order", "map-iteration-determinism", "determinism"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-rules listing missing %s", want)
		}
	}
}
