package main

import (
	"fmt"
	"math/rand"
	"time"

	"groupsafe/gsdb"
)

// Settings shared by every workload: three replicas running the
// certification technique (the gsdb.Open defaults), an emulated 1 ms log
// force, zero injected network latency (so latency is processor time only)
// and a closed loop of two clients.
const (
	replicas    = 3
	clients     = 2
	diskSync    = time.Millisecond
	warmupCalls = 100 // per client, on every cluster built, before timing
)

// spec is one named workload.
type spec struct {
	name  string
	items int
	level gsdb.SafetyLevel
	// shared: both clients write anywhere in the keyspace; otherwise each
	// writes only its own half.
	shared bool
	// session routes every call of a client through its own gsdb.Session.
	session bool
	// readBackChunk is the number of items per read-back query of the gate.
	readBackChunk int
	// next draws a client's next call from its generator.
	next func(g *gen) call
}

// call is one generated request: a read-only query or an update.
type call struct {
	query bool
	ops   []gsdb.Op
}

var specs = []spec{
	{
		name:          "update-gs",
		items:         10_000,
		level:         gsdb.GroupSafe,
		readBackChunk: 1,
		next:          func(g *gen) call { return g.ownUpdate() },
	},
	{
		name:          "update-2safe",
		items:         10_000,
		level:         gsdb.Safety2,
		shared:        true,
		readBackChunk: 1,
		next:          func(g *gen) call { return g.hotUpdate() },
	},
	{
		name:          "read-session",
		items:         1_000_000,
		level:         gsdb.GroupSafe,
		session:       true,
		readBackChunk: 64,
		next:          func(g *gen) call { return g.sessionMix() },
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// gen is one client's request generator.  It is seeded from the run seed
// and the client index only, so a seed fixes every client's request
// sequence; the program under test sees only the generated requests.
type gen struct {
	r      *rand.Rand
	client int
	items  int
	// lo and hi bound the client's own half of the keyspace: the only items
	// it writes (and, on update-gs, the only items it touches), so its last
	// acknowledged write of each is the value every replica must hold.
	lo, hi int
	// writes counts this client's writes; it makes every written value
	// unique and non-zero (0 is the initial value of every item).
	writes int64
	// lastWrite is an item of the client's latest update, which its next
	// query reads back (read-your-writes); -1 when already checked.
	lastWrite int
	picked    map[int]bool
}

func newGen(seed int64, client, items int) *gen {
	half := items / clients
	return &gen{
		r:         rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:    client,
		items:     items,
		lo:        client * half,
		hi:        (client + 1) * half,
		lastWrite: -1,
		picked:    make(map[int]bool, 32),
	}
}

func (g *gen) value() int64 {
	g.writes++
	return int64(g.client+1)<<40 | g.writes
}

// distinct returns n distinct items drawn by pick.
func (g *gen) distinct(n int, pick func() int) []int {
	clear(g.picked)
	out := make([]int, 0, n)
	for len(out) < n {
		it := pick()
		if !g.picked[it] {
			g.picked[it] = true
			out = append(out, it)
		}
	}
	return out
}

// update turns items into operations, each a write with probability 1/2
// and at least one a write.
func (g *gen) update(items []int) call {
	ops := make([]gsdb.Op, len(items))
	writes := 0
	for i, it := range items {
		ops[i] = gsdb.Op{Item: it}
		if g.r.Intn(2) == 0 {
			ops[i].Write = true
			writes++
		}
	}
	if writes == 0 {
		ops[g.r.Intn(len(ops))].Write = true
	}
	for i := range ops {
		if ops[i].Write {
			ops[i].Value = g.value()
			g.lastWrite = ops[i].Item
		}
	}
	return call{ops: ops}
}

func (g *gen) own() int { return g.lo + g.r.Intn(g.hi-g.lo) }

// ownUpdate: 1-4 operations over the client's own half, uniform.
func (g *gen) ownUpdate() call {
	return g.update(g.distinct(1+g.r.Intn(4), g.own))
}

// hotUpdate is the paper's Table 4 transaction: 10-20 operations, half of
// them writes, with half of all accesses going to the hottest 1% of items.
func (g *gen) hotUpdate() call {
	hot := g.items / 100
	return g.update(g.distinct(10+g.r.Intn(11), func() int {
		if g.r.Intn(2) == 0 {
			return g.r.Intn(hot)
		}
		return g.r.Intn(g.items)
	}))
}

// sessionMix: 10% updates of 1-4 operations over the client's own half,
// 90% queries of 2-4 items over the whole keyspace.  The first query after
// an update reads one of the items it wrote.
func (g *gen) sessionMix() call {
	if g.r.Intn(10) == 0 {
		return g.ownUpdate()
	}
	items := g.distinct(2+g.r.Intn(3), func() int { return g.r.Intn(g.items) })
	if g.lastWrite >= 0 && !g.picked[g.lastWrite] {
		items[0] = g.lastWrite
	}
	g.lastWrite = -1
	ops := make([]gsdb.Op, len(items))
	for i, it := range items {
		ops[i] = gsdb.Op{Item: it}
	}
	return call{query: true, ops: ops}
}
