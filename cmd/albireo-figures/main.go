// Command albireo-figures regenerates every table, figure and ablation
// of the paper's evaluation, and every study beyond it, from the simulator.
// Text and JSON come from the same rows (experiments.All).
//
// Usage:
//
//	albireo-figures                      # print everything
//	albireo-figures -json > RESULTS.json # every experiment's rows as JSON
//	albireo-figures -only fig8           # one experiment (-h lists the names)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"albireo/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-figures:", err)
		os.Exit(1)
	}
}

// run generates the requested experiments to out, returning an error
// (instead of exiting mid-logic) for unknown names or JSON failures.
func run(args []string, out io.Writer) error {
	exps := experiments.All()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("albireo-figures", flag.ContinueOnError)
	only := fs.String("only", "", "regenerate a single experiment ("+strings.Join(names, ", ")+")")
	jsonOut := fs.Bool("json", false, "dump every experiment's structured rows as JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *only != "" {
		i := 0
		for i < len(exps) && exps[i].Name != *only {
			i++
		}
		if i == len(exps) {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		exps = exps[i : i+1]
	}
	if *jsonOut {
		return experiments.WriteJSON(out, exps)
	}
	for _, e := range exps {
		_, text := e.Run()
		fmt.Fprintf(out, "==== %s ====\n%s\n", e.Name, text)
	}
	return nil
}
