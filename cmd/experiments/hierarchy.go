package main

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"waitfree/internal/hierarchy"
)

// hierarchyCmd regenerates Figure 1-1 of Herlihy's PODC 1988 paper — the
// impossibility/universality hierarchy — from machine evidence:
// exhaustively model-checked protocols for the lower bounds, and the
// interference decision procedure plus (with -full) bounded exhaustive
// protocol synthesis for the upper bounds.
//
//	experiments hierarchy          # fast evidence (seconds)
//	experiments hierarchy -full    # also run the synthesis searches (minutes)
func hierarchyCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	full := fs.Bool("full", false, "run the bounded synthesis searches (minutes of CPU)")
	verbose := fs.Bool("v", false, "print progress while computing evidence")
	return func(w, stderr io.Writer) int {
		opts := hierarchy.Options{Synthesis: *full}
		if *verbose {
			opts.Progress = func(s string) { fmt.Fprintln(stderr, "... "+s) }
		}
		rows := hierarchy.Table(opts)

		fmt.Fprintln(w, "Figure 1-1: Impossibility and Universality Hierarchy (Herlihy, PODC 1988)")
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "CONSENSUS#\tOBJECT")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\n", r.Level, r.Object)
		}
		if err := tw.Flush(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}

		fmt.Fprintln(w)
		fmt.Fprintln(w, "Evidence:")
		for _, r := range rows {
			fmt.Fprintf(w, "\n%s (consensus number %s)\n", r.Object, r.Level)
			fmt.Fprintf(w, "  lower [%s] %s\n", r.Lower.Kind, r.Lower.Detail)
			fmt.Fprintf(w, "  upper [%s] %s\n", r.Upper.Kind, r.Upper.Detail)
		}
		return 0
	}
}
