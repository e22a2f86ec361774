package main

import (
	"context"
	"fmt"
	"time"

	"groupsafe/gsdb"
)

// ledger is one client's record of what it wrote and what the cluster
// acknowledged, and the checks its own calls must pass.  Only its client's
// goroutine touches it until the run ends.
type ledger struct {
	base int // first item of the range the client may write
	// val and seq are, per item, the client's last acknowledged committed
	// write and its position in the total order (0: never written).
	val []int64
	seq []uint64
	// maybe holds the values of writes whose outcome is unknown (the call
	// failed): the item may hold any of them instead of val.
	maybe map[int][]int64
	// lo and hi bound the items only this client writes: its reads of them
	// must return exactly its last acknowledged write.  Empty when clients
	// share the keyspace.
	lo, hi     int
	violations []string
}

// newLedgers gives each client a ledger over the items it may write.
func newLedgers(s spec) []*ledger {
	lg := make([]*ledger, clients)
	half := s.items / clients
	for c := range lg {
		l := &ledger{maybe: map[int][]int64{}}
		if s.shared {
			l.val, l.seq = make([]int64, s.items), make([]uint64, s.items)
		} else {
			l.base, l.lo, l.hi = c*half, c*half, (c+1)*half
			l.val, l.seq = make([]int64, half), make([]uint64, half)
		}
		lg[c] = l
	}
	return lg
}

func (l *ledger) fail(format string, args ...any) {
	if len(l.violations) < 10 {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// observe checks one call's result and records its writes.  floor and
// after are the client's session token before and after the call.
func (l *ledger) observe(c int, cl call, res gsdb.Result, err error, floor, after uint64) {
	if after < floor {
		l.fail("client %d: session token went back from %d to %d", c, floor, after)
	}
	if err != nil {
		for _, op := range cl.ops {
			if op.Write {
				l.maybe[op.Item] = append(l.maybe[op.Item], op.Value)
			}
		}
		return
	}
	if cl.query {
		if res.Freshness < floor {
			l.fail("client %d: query served at %d below its session floor %d", c, res.Freshness, floor)
		}
		for _, op := range cl.ops {
			if op.Item >= l.lo && op.Item < l.hi {
				l.check(c, op.Item, res.ReadValues[op.Item])
			}
		}
		return
	}
	if !res.Committed() {
		return
	}
	if res.Freshness == 0 {
		l.fail("client %d: committed update %d has no total-order position", c, res.TxnID)
	}
	for _, op := range cl.ops {
		if op.Write {
			l.val[op.Item-l.base], l.seq[op.Item-l.base] = op.Value, res.Freshness
		}
	}
}

// check compares a value client c read from an item only it writes.
func (l *ledger) check(c, item int, got int64) {
	want := l.val[item-l.base]
	if got == want {
		return
	}
	for _, v := range l.maybe[item] {
		if got == v {
			return
		}
	}
	l.fail("client %d query: item %d reads %d, want %d", c, item, got, want)
}

// expected merges the ledgers: the value every replica must hold for an
// item is the acknowledged write latest in the total order, or 0.
type expected struct {
	ledgers []*ledger
}

func (e expected) value(item int) (want int64, alts []int64) {
	var best uint64
	for _, l := range e.ledgers {
		i := item - l.base
		if i < 0 || i >= len(l.val) {
			continue
		}
		if l.seq[i] > best {
			best, want = l.seq[i], l.val[i]
		}
		alts = append(alts, l.maybe[item]...)
	}
	return want, alts
}

// verify is the end-of-run gate: every replica converges within the
// deadline, and every item read back at every replica holds the value the
// ledgers expect.  The read-back queries are timed into readback.
func verify(ctx context.Context, t target, s spec, lg []*ledger, readback *[]time.Duration, tl *tally) error {
	for _, l := range lg {
		if len(l.violations) > 0 {
			return fmt.Errorf("gate: %s", l.violations[0])
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := t.waitConsistent(wctx); err != nil {
		return fmt.Errorf("gate: replicas did not converge: %w; %s", err, divergence(t, s))
	}
	exp := expected{ledgers: lg}
	items := make([]int, 0, s.readBackChunk)
	for r := 0; r < replicas; r++ {
		for lo := 0; lo < s.items; lo += s.readBackChunk {
			items = items[:0]
			for it := lo; it < lo+s.readBackChunk && it < s.items; it++ {
				items = append(items, it)
			}
			start := time.Now()
			res, err := t.read(ctx, r, items)
			lat := time.Since(start)
			tl.count(res, err, true)
			if err != nil {
				return fmt.Errorf("gate: read-back at replica %d: %w", r, err)
			}
			*readback = append(*readback, lat)
			if err := checkReadBack(exp, r, items, res.ReadValues); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkReadBack compares one read-back query with the expected state.
func checkReadBack(exp expected, replica int, items []int, got map[int]int64) error {
	for _, it := range items {
		v, ok := got[it]
		if !ok {
			return fmt.Errorf("gate: replica %d returned no value for item %d", replica, it)
		}
		want, alts := exp.value(it)
		if v == want {
			continue
		}
		found := false
		for _, a := range alts {
			found = found || v == a
		}
		if !found {
			return fmt.Errorf("gate: replica %d item %d reads %d, want %d", replica, it, v, want)
		}
	}
	return nil
}

// divergence counts, for every replica but the first, the items whose
// value differs from the first replica's.  It tells a replica that stopped
// applying (many items differ) from one that applied a transaction
// differently (a few items differ).
func divergence(t target, s spec) string {
	out := "items differing from replica 0:"
	for r := 1; r < replicas; r++ {
		n := 0
		for it := 0; it < s.items; it++ {
			a, errA := t.value(0, it)
			b, errB := t.value(r, it)
			if errA != nil || errB != nil {
				return fmt.Sprintf("%s replica %d unreadable at item %d", out, r, it)
			}
			if a != b {
				n++
			}
		}
		out += fmt.Sprintf(" replica %d: %d of %d", r, n, s.items)
	}
	return out
}
