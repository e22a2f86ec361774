package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"groupsafe/gsdb"
)

// target is the system a run drives: the public gsdb client, or the
// partition layer underneath it for the traced run.
type target interface {
	// exec runs one generated call on behalf of client c.
	exec(ctx context.Context, c int, cl call) (gsdb.Result, error)
	// read runs a read-only query of items pinned to one replica.
	read(ctx context.Context, replica int, items []int) (gsdb.Result, error)
	// token is client c's session token (0 without sessions).
	token(c int) uint64
	waitConsistent(ctx context.Context) error
	// value is an item's committed value at one replica, read from its
	// store directly.
	value(replica, item int) (int64, error)
	close()
}

// gsdbTarget drives the public API, one gsdb.Session per client when the
// workload uses sessions.
type gsdbTarget struct {
	db       *gsdb.Client
	sessions []*gsdb.Session
}

func openGsdb(ctx context.Context, s spec) (*gsdbTarget, error) {
	db, err := gsdb.Open(ctx, clusterOptions(s)...)
	if err != nil {
		return nil, err
	}
	t := &gsdbTarget{db: db}
	if s.session {
		for c := 0; c < clients; c++ {
			t.sessions = append(t.sessions, db.NewSession())
		}
	}
	return t, nil
}

// clusterOptions is the whole cluster configuration of a workload; every
// other setting is the gsdb.Open default.
func clusterOptions(s spec) []gsdb.Option {
	return []gsdb.Option{
		gsdb.WithReplicas(replicas),
		gsdb.WithItems(s.items),
		gsdb.WithSafetyLevel(s.level),
		gsdb.WithTechnique(gsdb.TechCertification),
		gsdb.WithDiskSyncDelay(diskSync),
	}
}

// readOnly is the option list of a query, built once so a call allocates
// nothing for it.
var readOnly = []gsdb.TxnOption{gsdb.ReadOnly()}

func (t *gsdbTarget) exec(ctx context.Context, c int, cl call) (gsdb.Result, error) {
	req := gsdb.Request{Ops: cl.ops}
	var opts []gsdb.TxnOption
	if cl.query {
		opts = readOnly
	}
	if t.sessions != nil {
		return t.sessions[c].Execute(ctx, req, opts...)
	}
	return t.db.Execute(ctx, req, opts...)
}

func (t *gsdbTarget) read(ctx context.Context, replica int, items []int) (gsdb.Result, error) {
	return t.db.Execute(ctx, gsdb.Query(items...), gsdb.Via(replica))
}

func (t *gsdbTarget) token(c int) uint64 {
	if t.sessions == nil {
		return 0
	}
	return t.sessions[c].Token()
}

func (t *gsdbTarget) waitConsistent(ctx context.Context) error { return t.db.WaitConsistent(ctx) }
func (t *gsdbTarget) value(replica, item int) (int64, error)   { return t.db.Value(replica, item) }
func (t *gsdbTarget) close()                                   { _ = t.db.Close() }

// tally counts call outcomes; errors are classed by errors.Is.
type tally struct {
	attempted, committed, aborted, queries int
	errTimeout, errCrashed, errOther       int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.committed += o.committed
	t.aborted += o.aborted
	t.queries += o.queries
	t.errTimeout += o.errTimeout
	t.errCrashed += o.errCrashed
	t.errOther += o.errOther
}

func (t *tally) failed() int    { return t.errTimeout + t.errCrashed + t.errOther }
func (t *tally) completed() int { return t.committed + t.aborted + t.queries }

func (t *tally) count(res gsdb.Result, err error, query bool) {
	t.attempted++
	switch {
	case errors.Is(err, gsdb.ErrTimeout):
		t.errTimeout++
	case errors.Is(err, gsdb.ErrCrashed):
		t.errCrashed++
	case err != nil:
		t.errOther++
	case query:
		t.queries++
	case res.Committed():
		t.committed++
	default:
		t.aborted++
	}
}

// client is one closed-loop client: its generator, its ledger of
// acknowledged writes, and what it measured.
type client struct {
	id     int
	gen    *gen
	ledger *ledger
	next   func(*gen) call

	tally          tally
	updates, quers []time.Duration
	delegates      map[string]int
}

func newClients(s spec, seed int64, lg []*ledger) []*client {
	cs := make([]*client, clients)
	for c := range cs {
		cs[c] = &client{id: c, gen: newGen(seed, c, s.items), ledger: lg[c], next: s.next, delegates: map[string]int{}}
	}
	return cs
}

// loop runs the client's closed loop until n calls are done (n > 0) or the
// deadline passes; it records timings only when record is set.
func (cl *client) loop(ctx context.Context, t target, n int, deadline time.Time, record bool) {
	for i := 0; n <= 0 || i < n; i++ {
		if n <= 0 && !time.Now().Before(deadline) {
			return
		}
		c := cl.next(cl.gen)
		floor := t.token(cl.id)
		start := time.Now()
		res, err := t.exec(ctx, cl.id, c)
		lat := time.Since(start)
		cl.ledger.observe(cl.id, c, res, err, floor, t.token(cl.id))
		if !record {
			continue
		}
		cl.tally.count(res, err, c.query)
		if err != nil {
			continue
		}
		cl.delegates[res.Delegate]++
		switch {
		case c.query:
			cl.quers = append(cl.quers, lat)
		case res.Committed():
			cl.updates = append(cl.updates, lat)
		}
	}
}

// runClients runs every client's loop concurrently and waits for all.
func runClients(ctx context.Context, t target, cs []*client, n int, d time.Duration, record bool) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, cl := range cs {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.loop(ctx, t, n, deadline, record)
		}(cl)
	}
	wg.Wait()
}
