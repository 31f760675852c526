package main

import (
	"flag"
	"fmt"
	"io"

	"waitfree/internal/hierarchy"
	"waitfree/internal/model"
)

func objects() map[string]func() model.Object {
	cas := model.RMWFn{
		Name: "compare-and-swap",
		Apply: func(cur, a, b model.Value) model.Value {
			if cur == a {
				return b
			}
			return cur
		},
		Operands: [][2]model.Value{{model.None, 0}, {model.None, 1}},
	}
	return map[string]func() model.Object{
		"registers": func() model.Object { return model.NewMemory("rw", make([]model.Value, 2)) },
		"register1": func() model.Object { return model.NewMemory("rw1", make([]model.Value, 1)) },
		"cas": func() model.Object {
			return model.NewMemory("cas", []model.Value{model.None}, model.WithRMW(cas), model.WithoutRW())
		},
		"tas": func() model.Object {
			return model.NewMemory("tas", []model.Value{0}, model.WithRMW(model.TestAndSet), model.WithoutRW())
		},
		"queue":    func() model.Object { return model.NewQueue("queue", nil) },
		"augqueue": func() model.Object { return model.NewAugmentedQueue("augqueue", nil) },
		"channels": func() model.Object { return model.NewChannels("p2p", 2) },
	}
}

// classifyCmd estimates the consensus number of a shared-object type by
// bounded protocol synthesis (internal/hierarchy.Classify): it searches for
// 2- and 3-process wait-free consensus protocols over the object's
// operation menu, re-verifying anything it finds with the exhaustive
// checker. Lower bounds are certain; "=" verdicts hold within the searched
// bounds only.
//
//	experiments classify -object registers -depth 2
//	experiments classify -object cas -depth 1
//	experiments classify -object queue -depth 2
//	experiments classify -list
func classifyCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	object := fs.String("object", "", "object to classify (see -list)")
	depth := fs.Int("depth", 2, "per-process operation bound")
	budget := fs.Int64("budget", 0, "search node budget (0 = default)")
	list := fs.Bool("list", false, "list known objects")
	return func(w, stderr io.Writer) int {
		objs := objects()
		if *list || *object == "" {
			fmt.Fprintln(w, "objects:")
			for name := range objs {
				fmt.Fprintf(w, "  %s\n", name)
			}
			fmt.Fprintln(w, "\nLower bounds are certain (found protocols are re-verified);")
			fmt.Fprintln(w, "\"=\" verdicts hold within the searched depth and value domain only.")
			return 0
		}
		mk, ok := objs[*object]
		if !ok {
			fmt.Fprintf(stderr, "classify: unknown object %q (try -list)\n", *object)
			return 1
		}
		c := hierarchy.Classify(mk(), *depth, *budget)
		fmt.Fprintf(w, "%s: %s\n", *object, c)
		return 0
	}
}
