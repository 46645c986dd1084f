// Command tclint runs the project's static-analysis suite: six analyzers
// (detrand, wallclock, maporder, errwrap, ctxplumb, nodeprecated) that
// enforce the determinism (seed provenance included), error-wrapping,
// context and deprecation-hygiene contracts the simulator's differential
// tests check dynamically. See DESIGN.md §6 for the contract each
// analyzer guards.
//
// Usage:
//
//	tclint [-json] [-list] [-wallclock.allow=prefix,...] [packages]
//
// With no packages it checks ./... . It lists the patterns with
// `go list -export -deps`, type-checks each matched package against its
// imports' export data and analyzes it. It exits 0 when clean, 1 on
// diagnostics or failure.
//
// -json emits the diagnostics as a sorted JSON array (stable field
// order) on stdout instead of text, for CI annotation tooling.
//
// Suppress a finding with a trailing or preceding comment:
//
//	//tclint:allow wallclock -- operator progress output, not simulated time
//
// The reason after "--" is mandatory: a suppression without one is
// itself a finding, and so is one naming no analyzer of the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"threadcluster/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonDiagnostic is the -json output shape. Field order is part of the
// output contract — CI annotation scripts parse it.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("tclint", flag.ContinueOnError)
	wallclockAllow := fs.String("wallclock.allow", "",
		"comma-separated package path prefixes where wall-clock time is allowed wholesale")
	listOnly := fs.Bool("list", false, "list the analyzers and their docs, then exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tclint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *wallclockAllow != "" {
		lint.WallclockAllowlist = strings.Split(*wallclockAllow, ",")
	}

	analyzers := lint.All()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tclint: %v\n", err)
		return 1
	}
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.File != b.File {
				return a.File < b.File
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			if a.Column != b.Column {
				return a.Column < b.Column
			}
			return a.Analyzer < b.Analyzer
		})
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tclint: %v\n", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
