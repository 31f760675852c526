package linearize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waitfree/internal/seqspec"
)

func ev(pid int, kind string, args []int64, resp, inv, ret int64) Event {
	return Event{Pid: pid, Op: seqspec.Op{Kind: kind, Args: args}, Resp: resp, Invoke: inv, Return: ret}
}

func TestRegisterHistories(t *testing.T) {
	reg := seqspec.Register{}
	tests := []struct {
		name string
		h    []Event
		want bool
	}{
		{
			name: "sequential write then read",
			h: []Event{
				ev(0, "write", []int64{5}, 0, 1, 2),
				ev(1, "read", nil, 5, 3, 4),
			},
			want: true,
		},
		{
			name: "read misses completed write",
			h: []Event{
				ev(0, "write", []int64{5}, 0, 1, 2),
				ev(1, "read", nil, 0, 3, 4),
			},
			want: false,
		},
		{
			name: "concurrent read may miss write",
			h: []Event{
				ev(0, "write", []int64{5}, 0, 1, 4),
				ev(1, "read", nil, 0, 2, 3),
			},
			want: true,
		},
		{
			name: "new-old read inversion",
			h: []Event{
				ev(0, "write", []int64{5}, 0, 1, 6),
				ev(1, "read", nil, 5, 2, 3),
				ev(1, "read", nil, 0, 4, 5),
			},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Check(reg, tt.h).OK; got != tt.want {
				t.Errorf("Check = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestQueueHistories(t *testing.T) {
	q := seqspec.Queue{}
	tests := []struct {
		name string
		h    []Event
		want bool
	}{
		{
			name: "fifo order respected",
			h: []Event{
				ev(0, "enq", []int64{1}, 0, 1, 2),
				ev(0, "enq", []int64{2}, 0, 3, 4),
				ev(1, "deq", nil, 1, 5, 6),
				ev(1, "deq", nil, 2, 7, 8),
			},
			want: true,
		},
		{
			name: "fifo order violated",
			h: []Event{
				ev(0, "enq", []int64{1}, 0, 1, 2),
				ev(0, "enq", []int64{2}, 0, 3, 4),
				ev(1, "deq", nil, 2, 5, 6),
				ev(1, "deq", nil, 1, 7, 8),
			},
			want: false,
		},
		{
			name: "concurrent enqs allow either order",
			h: []Event{
				ev(0, "enq", []int64{1}, 0, 1, 4),
				ev(1, "enq", []int64{2}, 0, 2, 3),
				ev(2, "deq", nil, 2, 5, 6),
				ev(2, "deq", nil, 1, 7, 8),
			},
			want: true,
		},
		{
			name: "deq of never-enqueued value",
			h: []Event{
				ev(0, "enq", []int64{1}, 0, 1, 2),
				ev(1, "deq", nil, 9, 3, 4),
			},
			want: false,
		},
		{
			name: "empty deq before any enq completes",
			h: []Event{
				ev(1, "deq", nil, seqspec.Empty, 1, 2),
				ev(0, "enq", []int64{1}, 0, 3, 4),
			},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Check(q, tt.h).OK; got != tt.want {
				t.Errorf("Check = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPendingOperations(t *testing.T) {
	reg := seqspec.Register{}
	// A crashed write(7) explains a read of 7 only if its invocation
	// precedes the read's response.
	completed := []Event{ev(1, "read", nil, 7, 3, 4)}
	crashedEarly := []Event{ev(0, "write", []int64{7}, 0, 1, 0)}
	if !CheckWithPending(reg, completed, crashedEarly).OK {
		t.Error("pending write should explain the read")
	}
	// Without the pending write the read of 7 is impossible.
	if Check(reg, completed).OK {
		t.Error("read of 7 with no write should not linearize")
	}
	// A pending op may also simply not take effect.
	completed2 := []Event{ev(1, "read", nil, 0, 3, 4)}
	if !CheckWithPending(reg, completed2, crashedEarly).OK {
		t.Error("pending write must be droppable")
	}
	// Real time still binds pending ops: a write invoked after the reader
	// returned cannot explain it.
	crashedLate := []Event{ev(0, "write", []int64{7}, 0, 9, 0)}
	if CheckWithPending(reg, completed, crashedLate).OK {
		t.Error("pending write invoked after the read returned must not explain it")
	}
}

// TestProgramOrder: a read that overlaps its own client's earlier write in
// real time may miss the write, unless it names the write as its
// program-order predecessor; the Recorder carries the edge.
func TestProgramOrder(t *testing.T) {
	reg := seqspec.Register{}
	write := ev(0, "write", []int64{5}, 0, 1, 4)
	read := ev(0, "read", nil, 0, 2, 3)
	if !Check(reg, []Event{write, read}).OK {
		t.Fatal("an overlapping read may miss the write")
	}
	read.After = write.Invoke
	if Check(reg, []Event{write, read}).OK {
		t.Error("a read after its own write must see it")
	}
	read.Resp = 5
	if !Check(reg, []Event{write, read}).OK {
		t.Error("a read that sees its own write linearizes")
	}

	var rec Recorder
	w, r := rec.Invoke(), rec.Invoke()
	rec.CompleteAfter(1, seqspec.Op{Kind: "read"}, 0, r, w)
	rec.Complete(1, seqspec.Op{Kind: "write", Args: []int64{5}}, 0, w)
	if h := rec.History(); Check(reg, h).OK {
		t.Errorf("recorded read after its own write linearized with a stale value: %v", h)
	}

	defer func() {
		if recover() == nil {
			t.Error("an After that names no event must panic")
		}
	}()
	read.After = 99
	Check(reg, []Event{write, read})
}

// TestSequentialAlwaysLinearizable: any actually-sequential execution of any
// object is linearizable; the recorder timestamps make it so by
// construction. Uses testing/quick over random op streams.
func TestSequentialAlwaysLinearizable(t *testing.T) {
	objects := []seqspec.Object{
		seqspec.Register{}, seqspec.Counter{}, seqspec.Queue{},
		seqspec.Stack{}, seqspec.Set{}, seqspec.PQueue{}, seqspec.KV{},
		seqspec.Bank{Accounts: 4}, seqspec.List{},
	}
	opKinds := map[string][]string{
		"register": {"read", "write"},
		"counter":  {"get", "inc", "add"},
		"queue":    {"enq", "deq", "peek", "len"},
		"stack":    {"push", "pop", "len"},
		"set":      {"insert", "contains", "removeMin", "len"},
		"pqueue":   {"insert", "deleteMin", "min", "len"},
		"kv":       {"put", "get", "del", "len"},
		"bank":     {"deposit", "withdraw", "transfer", "balance", "total"},
		"list":     {"cons", "head", "nth", "len"},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		obj := objects[rng.Intn(len(objects))]
		kinds := opKinds[obj.Name()]
		state := obj.Init()
		var h []Event
		ts := int64(0)
		for i := 0; i < 24; i++ {
			op := seqspec.Op{
				Kind: kinds[rng.Intn(len(kinds))],
				Args: []int64{int64(rng.Intn(5)), int64(rng.Intn(5)), int64(rng.Intn(3))},
			}
			resp := state.Apply(op)
			h = append(h, Event{Pid: 0, Op: op, Resp: resp, Invoke: ts + 1, Return: ts + 2})
			ts += 2
		}
		return Check(obj, h).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
