package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/gsdb"
	"groupsafe/internal/core"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/partition"
	"groupsafe/internal/wal"
)

// tracedTarget drives the partition layer directly (gsdb.Client does not
// expose its cluster), with the cluster configuration gsdb.Open builds, a
// metered network and deliver hooks on every replica.  It routes round-robin
// and threads each client's session token itself, standing in for the gsdb
// layer it skips.
type tracedTarget struct {
	cl      *partition.Cluster
	reps    []*core.Replica
	mem     *transport.MemNetwork
	net     *meteredNet
	session bool
	rr      atomic.Uint64
	tokens  []uint64 // per client; only that client's goroutine uses it
	rec     *recorder
}

// openTraced builds the cluster of one traced round.  Span times are kept
// relative to base, shared by every round of the run.
func openTraced(s spec, base time.Time) (*tracedTarget, error) {
	// gsdb.Open's defaults, then the same options.
	cfg := core.ClusterConfig{Replicas: 3, Items: 1024, Level: core.GroupSafe}
	for _, opt := range clusterOptions(s) {
		opt(&cfg)
	}
	mem := transport.NewMemNetwork()
	rec := &recorder{base: base, roots: make([][]rootSpan, clients)}
	t := &tracedTarget{
		mem:     mem,
		net:     &meteredNet{mem: mem, rec: rec, eps: map[string]*meteredEndpoint{}},
		session: s.session,
		tokens:  make([]uint64, clients),
		rec:     rec,
	}
	cfg.Network = t.net
	cl, err := partition.New(cfg)
	if err != nil {
		return nil, err
	}
	t.cl, t.reps = cl, cl.Part(0).Replicas()
	for i, r := range t.reps {
		r.SetDeliverHook(func(txn uint64) { t.rec.delivered(i, txn) })
	}
	return t, nil
}

func (t *tracedTarget) exec(ctx context.Context, c int, cl call) (gsdb.Result, error) {
	d := int((t.rr.Add(1) - 1) % replicas)
	req := core.Request{Ops: cl.ops, ReadOnly: cl.query}
	if t.session {
		req.MinFreshness = t.tokens[c]
	}
	start := time.Now()
	res, err := t.cl.Execute(ctx, d, req)
	end := time.Now()
	t.rec.root(c, rootSpan{txn: res.TxnID, start: t.rec.at(start), end: t.rec.at(end), delegate: d, query: cl.query, ok: err == nil})
	if t.session && err == nil && res.Freshness > t.tokens[c] {
		t.tokens[c] = res.Freshness
	}
	return res, err
}

func (t *tracedTarget) read(ctx context.Context, replica int, items []int) (gsdb.Result, error) {
	return t.cl.Execute(ctx, replica, gsdb.Query(items...))
}

func (t *tracedTarget) token(c int) uint64                       { return t.tokens[c] }
func (t *tracedTarget) waitConsistent(ctx context.Context) error { return t.cl.WaitConsistent(ctx) }
func (t *tracedTarget) value(replica, item int) (int64, error)   { return t.cl.Value(replica, item) }
func (t *tracedTarget) close()                                   { t.cl.Close() }

// counters is a snapshot of the layers' cumulative counters.
type counters struct {
	ab                        abcast.Stats
	delivered, wakeups, syncs uint64
	dropped, bytes            uint64
}

// add adds the difference end - start to c.
func (c *counters) add(start, end counters) {
	c.ab.MsgsSent += end.ab.MsgsSent - start.ab.MsgsSent
	c.ab.Broadcast += end.ab.Broadcast - start.ab.Broadcast
	c.ab.DataBatches += end.ab.DataBatches - start.ab.DataBatches
	c.ab.Ordered += end.ab.Ordered - start.ab.Ordered
	c.ab.AckSends += end.ab.AckSends - start.ab.AckSends
	c.ab.NacksSent += end.ab.NacksSent - start.ab.NacksSent
	c.ab.Retransmits += end.ab.Retransmits - start.ab.Retransmits
	c.delivered += end.delivered - start.delivered
	c.wakeups += end.wakeups - start.wakeups
	c.syncs += end.syncs - start.syncs
	c.dropped += end.dropped - start.dropped
	c.bytes += end.bytes - start.bytes
}

func (t *tracedTarget) counters() (counters, error) {
	var c counters
	for _, r := range t.reps {
		s := r.BroadcastStats()
		c.ab.MsgsSent += s.MsgsSent
		c.ab.Broadcast += s.Broadcast
		c.ab.DataBatches += s.DataBatches
		c.ab.Ordered += s.Ordered
		c.ab.AckSends += s.AckSends
		c.ab.NacksSent += s.NacksSent
		c.ab.Retransmits += s.Retransmits
		c.delivered += r.Stats().Delivered
		c.wakeups += r.FreshnessWakeups()
		log, ok := r.DB().Log().(*wal.MemLog)
		if !ok {
			return c, fmt.Errorf("replica %s: database log is %T, not an in-memory log", r.ID(), r.DB().Log())
		}
		c.syncs += log.Syncs()
	}
	_, c.dropped = t.mem.Stats()
	c.bytes = t.net.bytes.Load()
	return c, nil
}

// rootSpan is one client.execute span.
type rootSpan struct {
	txn        uint64
	start, end int64 // ns since the recorder's base
	delegate   int
	query, ok  bool
}

// recorder keeps one round's spans in memory: client.execute spans per
// client, and per replica the moment each transaction was delivered to it.
type recorder struct {
	base   time.Time
	rootOn atomic.Bool // client.execute spans are kept while set
	hookOn atomic.Bool // deliveries are kept from the first set on
	roots  [][]rootSpan
	hooks  [replicas]struct {
		mu   sync.Mutex
		recs []hookRec
	}
}

type hookRec struct {
	txn uint64
	at  int64
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

func (r *recorder) root(c int, s rootSpan) {
	if r.rootOn.Load() {
		r.roots[c] = append(r.roots[c], s)
	}
}

func (r *recorder) delivered(replica int, txn uint64) {
	if !r.hookOn.Load() {
		return
	}
	at := r.at(time.Now())
	h := &r.hooks[replica]
	h.mu.Lock()
	h.recs = append(h.recs, hookRec{txn: txn, at: at})
	h.mu.Unlock()
}

// updateSpans derives each traced update's child spans: client.submit
// (call to the delegate's first Send of the update's abcast DATA message),
// core.order (that Send to delivery at the delegate), core.reply (that
// delivery to the call's return) and core.lag (that delivery to delivery
// at the last replica).  A child is absent when a moment it needs was not
// seen.
type updateSpans struct {
	root                             rootSpan
	submitAt, deliverAt, lastAt      int64
	haveSubmit, haveDeliver, haveLag bool
}

// updates builds the round's update spans; sent[i] is what
// meteredNet.dataSent returned for replica i.
func (r *recorder) updates(sent [replicas][]int64) []updateSpans {
	seen := map[uint64]*[replicas]int64{}
	for i := range r.hooks {
		h := &r.hooks[i]
		h.mu.Lock()
		for _, rec := range h.recs {
			d := seen[rec.txn]
			if d == nil {
				d = &[replicas]int64{}
				seen[rec.txn] = d
			}
			d[i] = rec.at
		}
		h.mu.Unlock()
	}
	var out []updateSpans
	for _, rs := range r.roots {
		for _, s := range rs {
			if s.query || !s.ok {
				continue
			}
			u := updateSpans{root: s}
			if d := seen[s.txn]; d != nil && d[s.delegate] != 0 {
				u.deliverAt, u.haveDeliver, u.haveLag = d[s.delegate], true, true
				for _, at := range d {
					u.haveLag = u.haveLag && at != 0
					u.lastAt = max(u.lastAt, at)
				}
			}
			out = append(out, u)
		}
	}
	// DATA messages carry no transaction id the benchmark can read, so
	// each update takes its delegate's first unclaimed DATA Send after the
	// call began, if that Send came before the update's delivery.  Two
	// clients' overlapping calls at one delegate may swap their Sends.
	sort.Slice(out, func(i, j int) bool { return out[i].root.start < out[j].root.start })
	var next [replicas]int
	for k := range out {
		u := &out[k]
		d, xs := u.root.delegate, sent[u.root.delegate]
		for next[d] < len(xs) && xs[next[d]] < u.root.start {
			next[d]++
		}
		if u.haveDeliver && next[d] < len(xs) && xs[next[d]] <= u.deliverAt {
			u.submitAt, u.haveSubmit = xs[next[d]], true
			next[d]++
		}
	}
	return out
}

// spans returns the round's spans.
func (t *tracedTarget) spans() roundSpans {
	var sent [replicas][]int64
	for i, r := range t.reps {
		sent[i] = t.net.dataSent(r.ID())
	}
	return roundSpans{updates: t.rec.updates(sent), queries: t.rec.queries()}
}

// queries returns the client.execute spans of the round's queries.
func (r *recorder) queries() []rootSpan {
	var out []rootSpan
	for _, rs := range r.roots {
		for _, s := range rs {
			if s.query && s.ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// roundSpans are the spans of one traced round.
type roundSpans struct {
	updates []updateSpans
	queries []rootSpan
}

// maxSpanTxns caps the transactions whose span trees are written out.
const maxSpanTxns = 50_000

// writeSpans writes the span trees as JSON lines, one span per line.  All
// spans of one transaction share its txn id and round (every round's
// cluster numbers its transactions afresh).
func writeSpans(path string, rounds []roundSpans) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	n := 0
	for k, rs := range rounds {
		line := func(txn uint64, name, parent string, start, end int64) {
			fmt.Fprintf(w, `{"round":%d,"txn":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", k, txn, name, parent, start, end)
		}
		for _, u := range rs.updates {
			if n == maxSpanTxns {
				break
			}
			n++
			line(u.root.txn, "client.execute", "", u.root.start, u.root.end)
			if u.haveSubmit {
				line(u.root.txn, "client.submit", "client.execute", u.root.start, u.submitAt)
				line(u.root.txn, "core.order", "client.execute", u.submitAt, u.deliverAt)
			}
			if u.haveDeliver {
				line(u.root.txn, "core.reply", "client.execute", u.deliverAt, u.root.end)
			}
			if u.haveLag {
				line(u.root.txn, "core.lag", "client.execute", u.deliverAt, u.lastAt)
			}
		}
		for _, q := range rs.queries {
			if n == maxSpanTxns {
				break
			}
			n++
			line(q.txn, "client.execute", "", q.start, q.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// meteredNet decorates the in-memory network.  While on, it counts the
// bytes handed to every endpoint's Send, times each Send, and keeps the
// moment each abcast DATA message was first sent: the boundary between the
// client's own work on a call and its ordering.
type meteredNet struct {
	mem   *transport.MemNetwork
	rec   *recorder
	on    atomic.Bool
	bytes atomic.Uint64
	mu    sync.Mutex
	eps   map[string]*meteredEndpoint
}

func (n *meteredNet) Endpoint(addr string) transport.Endpoint {
	e := &meteredEndpoint{Endpoint: n.mem.Endpoint(addr), net: n}
	n.mu.Lock()
	n.eps[addr] = e
	n.mu.Unlock()
	return e
}
func (n *meteredNet) Crash(addr string)   { n.mem.Crash(addr) }
func (n *meteredNet) Recover(addr string) { n.mem.Recover(addr) }

// sendUs returns the durations of the Sends made while on, in
// microseconds.
func (n *meteredNet) sendUs() []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []float64
	for _, e := range n.eps {
		e.mu.Lock()
		out = append(out, us(e.sends)...)
		e.mu.Unlock()
	}
	return out
}

// dataSent returns, in time order, the moments the endpoint at addr first
// sent each abcast DATA message while on.  A broadcast sends the same
// payload to every member in turn; only the first of those Sends is kept.
func (n *meteredNet) dataSent(addr string) []int64 {
	n.mu.Lock()
	e := n.eps[addr]
	n.mu.Unlock()
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int64
	for i, d := range e.data {
		dup := false
		for j := max(0, i-8); j < i; j++ {
			dup = dup || e.data[j].payload == d.payload
		}
		if !dup {
			out = append(out, d.at)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type meteredEndpoint struct {
	transport.Endpoint
	net   *meteredNet
	mu    sync.Mutex
	sends []time.Duration
	data  []dataSend
}

type dataSend struct {
	at      int64 // ns since the recorder's base
	payload *byte // identifies the broadcast
}

func (e *meteredEndpoint) Send(to string, m transport.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(to, m)
	if e.net.on.Load() {
		took := time.Since(start)
		e.net.bytes.Add(uint64(len(m.Type) + len(m.Payload)))
		e.mu.Lock()
		e.sends = append(e.sends, took)
		if m.Type == abcast.MsgData && len(m.Payload) > 0 {
			e.data = append(e.data, dataSend{at: e.net.rec.at(start), payload: &m.Payload[0]})
		}
		e.mu.Unlock()
	}
	return err
}
