// Package synth searches exhaustively for wait-free binary consensus
// protocols of bounded depth over a given shared object.
//
// This is the machine-checkable counterpart of the paper's impossibility
// theorems. A theorem such as "there is no wait-free solution to two-process
// consensus by atomic read/write registers" (Theorem 2) quantifies over all
// protocols; synth makes the quantifier finite by bounding the number of
// operations a process may execute before deciding (the depth d) and the
// operation menu (registers, value domain), then searches the entire space
// of deterministic protocols. An exhausted search is a proof that no
// protocol exists *within those bounds*; the paper's valency argument
// explains why no bound ever suffices.
//
// The search is an AND-OR game with a consistency constraint. A protocol is
// a strategy: a function from a process's knowledge — its pid, its input,
// and the sequence of responses it has received — to its next action (an
// operation from the menu, or a decision). The adversary (the scheduler)
// picks which undecided process moves; the search must satisfy *every*
// scheduler choice under *one* strategy, across *all* input assignments.
// Chronological backtracking over strategy assignments explores exactly the
// space of deterministic protocols once.
//
// We search for binary consensus (inputs in {0,1}) with the paper's
// partial-correctness conditions: agreement, and validity in the strong form
// that the decided value must be the input of a process that has taken a
// step. Binary consensus is the weakest variant, so its impossibility
// implies impossibility of the election form used by the positive protocols.
package synth

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"waitfree/internal/model"
)

// Params configures a synthesis run.
type Params struct {
	// Procs is the number of processes n.
	Procs int
	// Depth is the maximum number of operations a process may execute
	// before it must decide.
	Depth int
	// NodeBudget caps search nodes; 0 means 200 million. If exceeded the
	// result is inconclusive (Complete=false).
	NodeBudget int64
	// PreferOps orders operations before decisions in the candidate menu.
	// For exhaustive (impossibility) searches the order is irrelevant; for
	// positive discovery, information-gathering protocols are found sooner.
	PreferOps bool
}

// Result reports a synthesis outcome.
type Result struct {
	// Found is true if a correct protocol within bounds exists.
	Found bool
	// Strategy maps knowledge keys to actions for a found protocol.
	Strategy map[string]model.Action
	// Complete is true if the search space was exhausted. Found==false
	// with Complete==true is the impossibility verdict.
	Complete bool
	// Nodes is the number of search nodes visited.
	Nodes int64
	// MenuSize is the per-process action menu size (for reporting).
	MenuSize int
}

// String renders the verdict.
func (r Result) String() string {
	switch {
	case r.Found:
		return fmt.Sprintf("protocol FOUND (%d knowledge states, %d nodes searched)",
			len(r.Strategy), r.Nodes)
	case r.Complete:
		return fmt.Sprintf("NO protocol exists within bounds (search exhausted, %d nodes)", r.Nodes)
	default:
		return fmt.Sprintf("INCONCLUSIVE (node budget exhausted at %d nodes)", r.Nodes)
	}
}

// cfg is one reachable configuration under one input assignment.
type cfg struct {
	obj      string
	procs    []proc
	inputs   []model.Value
	firstDec model.Value
}

// proc is one process's part of a configuration.
type proc struct {
	hist    int32 // response history, interned in searcher.hists
	depth   int8  // operations executed
	decided bool
	moved   bool
}

// knowledge is what process pid knows — its input and the responses it has
// received — and so the domain of a strategy.
type knowledge struct {
	pid   int
	input model.Value
	hist  int32
}

// histStep names the history that extends history from by one response.
type histStep struct {
	from int32
	resp model.Value
}

// cfgBox allocates a configuration together with room for the per-process
// state of up to four processes.
type cfgBox struct {
	cfg
	buf [4]proc
}

func (c *cfg) clone() *cfg {
	box := &cfgBox{cfg: *c}
	box.procs = append(box.buf[:0], c.procs...)
	return &box.cfg
}

// obligation is a pending proof obligation: all scheduler choices >= minPid
// at configuration c must succeed.
type obligation struct {
	c      *cfg
	minPid int
	next   *obligation
}

type searcher struct {
	obj      model.Object
	params   Params
	menus    [][]model.Action // per-pid action menus (decides then ops)
	strategy map[knowledge]model.Action
	nodes    int64
	overflow bool

	// Response histories are interned: hists[id] renders history id as
	// ",r1,r2,...", and histIDs finds the one-response extensions. A
	// history is then one integer in a configuration, its key and a
	// knowledge state.
	hists   []string
	histIDs map[histStep]int32

	// Verified-subtree memoization, aligned with the strategy trail. An
	// entry in memo means "every schedule from this configuration satisfies
	// safety under the strategy assignments in force when it was added".
	// A proof can only depend on assignments that existed at its creation,
	// so entries stay valid while those assignments stand; when the search
	// retracts an assignment it discards every entry created after it
	// (memoTrail records creation order). Keys are built into keyBuf and
	// looked up without allocating; only an insert copies one out.
	memo      map[string]bool
	memoTrail []string
	keyBuf    []byte
}

// key canonically encodes the configuration into s.keyBuf. Process
// knowledge determines decided/moved/depth implicitly, but decided is cheap
// to include and keeps the encoding self-evident; inputs must be included
// because one strategy serves all input assignments.
func (s *searcher) key(c *cfg) []byte {
	b := binary.AppendUvarint(s.keyBuf[:0], uint64(len(c.obj)))
	b = append(b, c.obj...)
	for p, pr := range c.procs {
		b = binary.AppendVarint(b, int64(c.inputs[p]))
		if pr.decided {
			b = append(b, 'D')
		} else {
			b = append(b, '-')
		}
		b = binary.AppendUvarint(b, uint64(pr.hist))
	}
	b = binary.AppendVarint(b, int64(c.firstDec))
	s.keyBuf = b
	return b
}

// knowledge returns the strategy key for process p in c.
func (c *cfg) knowledge(p int) knowledge {
	return knowledge{pid: p, input: c.inputs[p], hist: c.procs[p].hist}
}

// extend returns the history that follows history h by one response.
func (s *searcher) extend(h int32, resp model.Value) int32 {
	step := histStep{from: h, resp: resp}
	if id, ok := s.histIDs[step]; ok {
		return id
	}
	id := int32(len(s.hists))
	s.hists = append(s.hists, s.hists[h]+","+strconv.Itoa(int(resp)))
	s.histIDs[step] = id
	return id
}

// Search runs the synthesis. obj supplies the operation menu via Ops.
func Search(obj model.Object, params Params) Result {
	if params.NodeBudget == 0 {
		params.NodeBudget = 200_000_000
	}
	n := params.Procs
	s := &searcher{
		obj:      obj,
		params:   params,
		strategy: make(map[knowledge]model.Action),
		hists:    []string{""},
		histIDs:  make(map[histStep]int32),
		memo:     make(map[string]bool),
	}
	s.menus = make([][]model.Action, n)
	for p := 0; p < n; p++ {
		decides := []model.Action{model.Decide(0), model.Decide(1)}
		var ops []model.Action
		for _, op := range obj.Ops(n, p) {
			ops = append(ops, model.Invoke(op))
		}
		if params.PreferOps {
			s.menus[p] = append(ops, decides...)
		} else {
			// Decisions first: they fail fast and found protocols stay short.
			s.menus[p] = append(decides, ops...)
		}
	}

	// Top-level conjunction: one obligation per input assignment, sharing
	// one strategy.
	var head *obligation
	for bits := (1 << n) - 1; bits >= 0; bits-- {
		inputs := make([]model.Value, n)
		for p := 0; p < n; p++ {
			inputs[p] = model.Value((bits >> p) & 1)
		}
		c := &cfg{
			obj:      obj.Init(),
			procs:    make([]proc, n),
			inputs:   inputs,
			firstDec: model.None,
		}
		head = &obligation{c: c, minPid: 0, next: head}
	}

	found := s.solve(head)
	res := Result{
		Found:    found,
		Complete: !s.overflow,
		Nodes:    s.nodes,
		MenuSize: len(s.menus[0]),
	}
	if found {
		res.Strategy = make(map[string]model.Action, len(s.strategy))
		for k, act := range s.strategy {
			res.Strategy[strconv.Itoa(k.pid)+"|"+strconv.Itoa(int(k.input))+"|"+s.hists[k.hist]] = act
		}
		res.Complete = true
	}
	return res
}

// solve discharges the obligation list under the current partial strategy,
// extending it as needed. It returns true if every obligation is satisfied.
func (s *searcher) solve(ob *obligation) bool {
	if ob == nil {
		return true
	}
	s.nodes++
	if s.nodes > s.params.NodeBudget {
		s.overflow = true
		return false
	}
	c, minPid := ob.c, ob.minPid

	if minPid == 0 && s.memo[string(s.key(c))] {
		return s.solve(ob.next)
	}

	// Find the next scheduler branch to expand at c.
	p := minPid
	for p < s.params.Procs && c.procs[p].decided {
		p++
	}
	if p >= s.params.Procs {
		// All branches of c verified along this path: memoize the subtree.
		if k := s.key(c); !s.memo[string(k)] {
			ks := string(k)
			s.memo[ks] = true
			s.memoTrail = append(s.memoTrail, ks)
		}
		return s.solve(ob.next)
	}
	rest := &obligation{c: c, minPid: p + 1, next: ob.next}

	k := c.knowledge(p)
	if act, ok := s.strategy[k]; ok {
		child, ok := s.apply(c, p, act)
		if !ok {
			return false
		}
		return s.solve(&obligation{c: child, minPid: 0, next: rest})
	}

	// EXISTS: choose p's action at this fresh knowledge state.
	mustDecide := int(c.procs[p].depth) >= s.params.Depth
	for _, act := range s.menus[p] {
		if mustDecide && act.Kind != model.ActDecide {
			continue
		}
		child, ok := s.apply(c, p, act)
		if !ok {
			continue
		}
		memoMark := len(s.memoTrail)
		s.strategy[k] = act
		if s.solve(&obligation{c: child, minPid: 0, next: rest}) {
			return true
		}
		// Retract the assignment and every subtree proof completed after
		// it (such proofs may depend on it).
		delete(s.strategy, k)
		for _, mk := range s.memoTrail[memoMark:] {
			delete(s.memo, mk)
		}
		s.memoTrail = s.memoTrail[:memoMark]
		if s.overflow {
			return false
		}
	}
	return false
}

// apply executes p's action on c, returning the successor configuration and
// whether the action is immediately safe (agreement and validity hold).
func (s *searcher) apply(c *cfg, p int, act model.Action) (*cfg, bool) {
	if act.Kind == model.ActDecide {
		if c.firstDec != model.None && c.firstDec != act.Dec {
			return nil, false // agreement
		}
		owned := false
		for j, in := range c.inputs {
			if in == act.Dec && (c.procs[j].moved || j == p) {
				owned = true
				break
			}
		}
		if !owned {
			return nil, false // validity
		}
	}
	child := c.clone()
	pr := &child.procs[p]
	pr.moved = true
	if act.Kind == model.ActDecide {
		pr.decided = true
		if child.firstDec == model.None {
			child.firstDec = act.Dec
		}
		return child, true
	}
	var resp model.Value
	child.obj, resp = s.obj.Apply(c.obj, act.Op)
	pr.hist = s.extend(pr.hist, resp)
	pr.depth++
	return child, true
}

// FormatStrategy renders a found protocol for human inspection, sorted by
// process and knowledge depth.
func FormatStrategy(strategy map[string]model.Action) string {
	keys := make([]string, 0, len(strategy))
	for k := range strategy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for _, k := range keys {
		act := strategy[k]
		if act.Kind == model.ActDecide {
			fmt.Fprintf(&b, "  %-24s -> decide %d\n", k, act.Dec)
		} else {
			fmt.Fprintf(&b, "  %-24s -> %s\n", k, act.Op)
		}
	}
	return b.String()
}
