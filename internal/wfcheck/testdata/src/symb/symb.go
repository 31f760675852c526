// Package symb is the caller side of the symbolic-composition fixture: its
// exported operation runs r rounds of the inner package's n-step scan, so
// the certified bound must multiply parameters declared in two different
// packages — O(n·r), composed through the whole-program call graph.
package symb

import "waitfree/internal/wfcheck/testdata/src/symb/inner"

// Front polls an inner scanner a configured number of rounds.
type Front struct {
	//wf:param r
	rounds int
	sc     *inner.Scanner
}

// New builds a front end polling rounds times over an n-process scanner.
func New(rounds, n int) *Front {
	return &Front{rounds: rounds, sc: inner.NewScanner(n)}
}

// Scanner exposes the inner scanner, pulling it into the certified surface.
func (f *Front) Scanner() *inner.Scanner { return f.sc }

// Poll runs one scan per configured round.
func (f *Front) Poll() int64 {
	var total int64
	for i := 0; i < f.rounds; i++ {
		total += f.sc.Scan()
	}
	return total
}
