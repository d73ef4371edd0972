// Command albireo-lint runs the repo-specific static analyzers in
// internal/lint over the module: the type-aware module rules
// (hotpath-alloc-proof, lock-order, map-iteration-determinism,
// unreachable) plus the per-file rules (determinism, obs-determinism, unit-safety,
// float-equality, exit-hygiene, goroutine-hygiene).
//
// Usage:
//
//	albireo-lint ./...                      # whole module
//	albireo-lint ./internal/...             # one subtree
//	albireo-lint -strict ./...              # warnings also fail
//	albireo-lint -json lint.out ./...       # also write JSON findings
//	albireo-lint -severity goroutine-hygiene=error ./...
//	albireo-lint -rules                     # describe every rule
//
// Findings print as file:line:col: [rule] message. With -json PATH
// the same findings are additionally written to PATH as a JSON
// document (PATH "-" writes JSON to stdout instead of the text
// lines), so CI can archive the machine-readable report. -severity
// overrides a rule's level (comma-separated rule=warn|error pairs).
// The exit status is non-zero when any error-severity finding (or,
// with -strict, any finding at all) survives //lint:ignore
// suppression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"albireo/internal/lint"
)

// errFindings signals a clean run that found problems: already
// reported, so main exits non-zero without another message.
var errFindings = errors.New("albireo-lint: findings reported")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFindings) {
			fmt.Fprintln(os.Stderr, "albireo-lint:", err)
		}
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable rendering of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// jsonReport is the -json document: every finding plus the summary
// counts the text mode prints to stderr.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
}

// applySeverities parses "rule=warn|error" comma-separated overrides
// and mutates the matching rules.
func applySeverities(spec string, rules []*lint.Rule) error {
	if spec == "" {
		return nil
	}
	byName := map[string]*lint.Rule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	for _, pair := range strings.Split(spec, ",") {
		name, level, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return fmt.Errorf("bad -severity entry %q (want rule=warn|error)", pair)
		}
		r := byName[name]
		if r == nil {
			return fmt.Errorf("-severity names unknown rule %q", name)
		}
		switch level {
		case "warn":
			r.Severity = lint.Warn
		case "error":
			r.Severity = lint.Error
		default:
			return fmt.Errorf("bad -severity level %q for rule %s (want warn or error)", level, name)
		}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("albireo-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strict := fs.Bool("strict", false, "treat warn-level findings as failures")
	describe := fs.Bool("rules", false, "print every rule's name and doc, then exit")
	jsonPath := fs.String("json", "", "also write findings as JSON to this path (\"-\" for stdout)")
	severities := fs.String("severity", "", "comma-separated rule=warn|error overrides")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rules := lint.Default()
	if err := applySeverities(*severities, rules); err != nil {
		return err
	}
	if *describe {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-26s %-5s %s\n", r.Name, r.Severity, r.Doc)
		}
		return nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var all []lint.Finding
	for _, pat := range patterns {
		root := strings.TrimSuffix(pat, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		findings, err := lint.Run(root, rules)
		if err != nil {
			return err
		}
		all = append(all, findings...)
	}

	report := jsonReport{Findings: []jsonFinding{}}
	for _, f := range all {
		report.Findings = append(report.Findings, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Rule:     f.Rule,
			Severity: f.Severity.String(),
			Message:  f.Message,
		})
		if f.Severity == lint.Error {
			report.Errors++
		} else {
			report.Warnings++
		}
	}

	textOut := stdout
	if *jsonPath == "-" {
		textOut = io.Discard // JSON owns stdout
	}
	for _, f := range all {
		if f.Severity == lint.Error {
			fmt.Fprintln(textOut, f)
		} else {
			fmt.Fprintf(textOut, "%s (warn)\n", f)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, stdout, report); err != nil {
			return err
		}
	}
	if report.Errors+report.Warnings > 0 {
		fmt.Fprintf(stderr, "albireo-lint: %d error(s), %d warning(s)\n", report.Errors, report.Warnings)
	}
	if report.Errors > 0 || (*strict && report.Warnings > 0) {
		return errFindings
	}
	return nil
}

// writeJSON renders the report to path, or to stdout when path is
// "-".
func writeJSON(path string, stdout io.Writer, report jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
