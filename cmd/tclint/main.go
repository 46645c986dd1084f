// Command tclint runs the project's static-analysis suite: five analyzers
// (detrand, wallclock, maporder, errwrap, ctxplumb) that enforce the
// determinism (seed provenance included), error-wrapping and context
// contracts the simulator's differential tests check dynamically. See
// DESIGN.md §6 for the contract each analyzer guards.
//
// Usage:
//
//	tclint [-list] [packages]
//
// With no packages it checks ./... . It lists the patterns with
// `go list -export -deps`, type-checks each matched package against its
// imports' export data and analyzes it. It exits 0 when clean, 1 on
// diagnostics or failure. There are no suppression comments: a finding
// is fixed or the analyzer is narrowed.
package main

import (
	"flag"
	"fmt"
	"os"

	"threadcluster/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tclint", flag.ContinueOnError)
	listOnly := fs.Bool("list", false, "list the analyzers and their docs, then exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tclint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
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
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
