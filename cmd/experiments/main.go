// Command experiments is the paper-side command line. Bare, it prints the
// measurable-experiment report; `experiments <command> [flags]` runs one
// kind of evidence — the commands table below is the list, `experiments -h`
// prints it, and `experiments <command> -h` prints that command's flags.
// The verification experiments proper (exhaustive checking, synthesis at
// full depth) live in `go test`.
//
//wf:blocking driver: spawns worker goroutines and waits for them with sync.WaitGroup, which is the point of a demo harness
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// command is one subcommand. setup declares the command's flags on its own
// FlagSet and returns what to run once they are parsed; the returned
// function's result is the process exit code.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(stdout, stderr io.Writer) int
}

// commands lists every subcommand; "report" is what a bare invocation runs.
var commands = []command{
	{"report", "measurable experiments in one pass (E14–E20, E29); the default", reportCmd},
	{"hierarchy", "regenerate Figure 1-1 from machine evidence (E1)", hierarchyCmd},
	{"classify", "estimate an object's consensus number by bounded synthesis", classifyCmd},
	{"impossibility", "impossibility evidence: synthesis, interference, valency (E2, E4, E6)", impossibilityCmd},
	{"modelcheck", "exhaustive checker, schedule fuzzer or valency analysis on a protocol", modelcheckCmd},
	{"metrics", "drive a mixed workload and dump one wfstats registry (E29)", metricsCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// run dispatches args to a subcommand and returns the exit code: the
// command's own, or 2 for an unknown command or a flag it does not define.
func run(args []string, stdout, stderr io.Writer) int {
	name := "report"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	c := lookup(name)
	if c == nil {
		fmt.Fprintf(stderr, "experiments: unknown command %q\n", name)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("experiments "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		usage(stderr)
		fmt.Fprintf(stderr, "\nflags of %s:\n", name)
		fs.PrintDefaults()
	}
	exec := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	return exec(stdout, stderr)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: experiments [command] [flags]")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-14s %s\n", c.name, c.summary)
	}
}
