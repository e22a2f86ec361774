// Command perfbench is the repository benchmark.  It runs one named workload
// against a three-replica cluster built through the public gsdb API, checks
// the run's results, and prints its metrics; with -trace 1 it runs the
// workload again one layer down, with spans and layer counters, and prints
// the per-layer metrics instead.  The last line of its output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload update-gs -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is the directory the traced run writes its span file to.
	spans string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: update-gs, update-2safe or read-session")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request generators")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory for the traced run's span file")
	flag.Parse()
	o.trace = *trace == 1

	// A run must end within 180 s; a hang is a failure, not a result.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	res, err := run(context.Background(), os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects a run's metrics and prints each as it is added.
type report struct {
	w   io.Writer
	res *result
}

func (r *report) add(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.w, "%-34s %14.4f %s\n", name, value, unit)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// run executes one benchmark run.  It returns a nil result when the run
// could not start; a result with Correct false and no metrics when the
// correctness gate failed.
func run(ctx context.Context, w io.Writer, o options) (*result, error) {
	s, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	rep := &report{w: w, res: &result{Correct: true, Metrics: map[string]metric{}}}
	h := probeHost()
	rep.note("host nproc=%d gomaxprocs=%d go=%s sleep_100us_p50_us=%.1f sleep_1ms_p50_us=%.1f",
		h.nproc, h.gomaxprocs, h.goVersion, h.sleep100us, h.sleep1ms)
	rep.note("run workload=%s seed=%d seconds=%g trace=%v replicas=%d clients=%d items=%d level=%v",
		s.name, o.seed, o.seconds, o.trace, replicas, clients, s.items, s.level)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		err = perLayer(ctx, rep, s, o, h, d)
	} else {
		err = endToEnd(ctx, rep, s, o, d)
	}
	if err != nil {
		rep.res.Correct = false
		rep.res.Metrics = map[string]metric{}
	}
	return rep.res, err
}

// roundLength is the measured length of one round of an untraced run.
// Each round builds a fresh cluster, warms it up, measures it and gates it;
// every end-to-end metric is the median of the rounds' values, so a stall
// in one round (CPU steal on a shared VM comes in bursts of about a
// second) does not set the run's figure, and the state a cluster accumulates (its
// heap grows with every transaction) is bounded by the round's length
// rather than the run's.
const roundLength = 3 * time.Second

// phase is what one timed closed-loop phase measured.
type phase struct {
	setup     float64 // median over the round's set-ups: seconds from opening a cluster to its first answered calls
	wall, cpu time.Duration
	allocs    uint64
	// heapGrowth is the growth of the live heap over the timed phase, in
	// bytes per completed call: what the cluster keeps per unit of work.
	heapGrowth float64
	// done is the number of calls the timed phase completed; tally goes on
	// to count the gate's read-back queries.
	done             int
	tally            tally
	updates, queries []time.Duration
	readback         []time.Duration
	delegates        map[string]int
	gateWall         time.Duration
}

// measure runs the clients' closed loops for d with timing on.
func measure(ctx context.Context, t target, cs []*client, d time.Duration) *phase {
	// Collect the garbage of earlier work first, so the phase's heap
	// figure and GC work are its own.
	runtime.GC()
	live0 := liveHeap()
	cpu0, m0, start := cpuTime(), mallocs(), time.Now()
	runClients(ctx, t, cs, 0, d, true)
	p := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0, allocs: mallocs() - m0, delegates: map[string]int{}}
	runtime.GC()
	// The clients' latency slices (8 bytes a time.Duration) are the
	// harness's, not the cluster's.
	var harness int64
	for _, cl := range cs {
		harness += int64(cap(cl.updates)+cap(cl.quers)) * 8
	}
	grown := int64(liveHeap()) - int64(live0) - harness
	for _, cl := range cs {
		p.tally.add(cl.tally)
		p.updates = append(p.updates, cl.updates...)
		p.queries = append(p.queries, cl.quers...)
		for k, v := range cl.delegates {
			p.delegates[k] += v
		}
	}
	p.done = p.tally.completed()
	p.heapGrowth = float64(grown) / float64(p.done)
	return p
}

// queryUs returns the query latency quantile: the timed queries when the
// workload has any, else the gate's read-back queries (the update
// workloads' only queries).
func (p *phase) queryUs(q float64) float64 {
	if len(p.queries) > 0 {
		return percentile(us(p.queries), q)
	}
	return percentile(us(p.readback), q)
}

func (p *phase) updateUs(q float64) float64 { return percentile(us(p.updates), q) }

// merge adds another phase's measurements to p.
func (p *phase) merge(q *phase) {
	p.setup += q.setup
	p.wall += q.wall
	p.cpu += q.cpu
	p.allocs += q.allocs
	p.done += q.done
	p.tally.add(q.tally)
	p.updates = append(p.updates, q.updates...)
	p.queries = append(p.queries, q.queries...)
	p.readback = append(p.readback, q.readback...)
	for k, v := range q.delegates {
		p.delegates[k] += v
	}
	p.gateWall += q.gateWall
}

// setUpSamples is how many clusters a round opens to time set-up; it
// keeps the last.  Set-up is mostly page faults on fresh memory, whose
// cost swings widely on a VM, so a round reports the median of several.
const setUpSamples = 3

// opened is a cluster that has answered each client's first call.
type opened struct {
	t     target
	cs    []*client
	lg    []*ledger
	setup float64 // seconds from open to the last first answer
}

// setUp opens a cluster with open and runs each client's first call on it.
// Set-up ends there; the rest of the warm-up is the benchmark's, not the
// program's.
func setUp(ctx context.Context, s spec, seed int64, open func() (target, error)) (*opened, error) {
	o := &opened{lg: newLedgers(s)}
	o.cs = newClients(s, seed, o.lg)
	// Collect earlier clusters and return their memory to the OS, so every
	// set-up starts from the same state, a fresh process's, and does not
	// time an earlier cluster's collection.
	debug.FreeOSMemory()
	start := time.Now()
	t, err := open()
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	o.t = t
	runClients(ctx, t, o.cs, 1, 0, false)
	o.setup = time.Since(start).Seconds()
	return o, nil
}

// round builds a cluster with open, warms it up, measures it for d and
// gates it.  around, when set, runs the timed phase it is given, so a
// traced round can read counters on either side of it.
func round(ctx context.Context, s spec, seed int64, d time.Duration, open func() (target, error), around func(timed func()) error) (*phase, error) {
	var (
		o      *opened
		setups []float64
	)
	for k := 0; k < setUpSamples; k++ {
		if o != nil {
			o.t.close()
		}
		var err error
		if o, err = setUp(ctx, s, seed, open); err != nil {
			return nil, err
		}
		setups = append(setups, o.setup)
	}
	t, cs, lg := o.t, o.cs, o.lg
	defer t.close()
	runClients(ctx, t, cs, warmupCalls-1, 0, false)
	var p *phase
	timed := func() { p = measure(ctx, t, cs, d) }
	if around == nil {
		timed()
	} else if err := around(timed); err != nil {
		return nil, err
	}
	p.setup = median(setups)
	gateStart := time.Now()
	if err := verify(ctx, t, s, lg, &p.readback, &p.tally); err != nil {
		return nil, err
	}
	p.gateWall = time.Since(gateStart)
	return p, nil
}

// untracedRound is one round through the public gsdb API.
func untracedRound(ctx context.Context, s spec, seed int64, d time.Duration) (*phase, error) {
	return round(ctx, s, seed, d, func() (target, error) { return openGsdb(ctx, s) }, nil)
}

// endToEnd is the untraced run: the end-to-end metrics through gsdb.
func endToEnd(ctx context.Context, rep *report, s spec, o options, d time.Duration) error {
	vals := map[string][]float64{}
	rounds := max(1, int(d/roundLength))
	for k := 0; k < rounds; k++ {
		p, err := untracedRound(ctx, s, o.seed*1000+int64(k), d/time.Duration(rounds))
		if err != nil {
			return fmt.Errorf("round %d: %w", k, err)
		}
		rep.res.Attempted += p.tally.attempted
		rep.res.Failed += p.tally.failed()
		noteTally(rep, fmt.Sprintf("round %d", k), p)
		for _, m := range endToEndMetrics {
			vals[m.name] = append(vals[m.name], m.of(p))
		}
	}
	for _, m := range endToEndMetrics {
		rep.add(m.name, median(vals[m.name]), m.unit)
	}
	return nil
}

// endToEndMetrics are the untraced run's metrics, in print order, and how
// each is read from one round.
var endToEndMetrics = []struct {
	name, unit string
	of         func(p *phase) float64
}{
	{"setup_s", "s", func(p *phase) float64 { return p.setup }},
	{"update_p50_us", "us", func(p *phase) float64 { return p.updateUs(0.5) }},
	{"query_p50_us", "us", func(p *phase) float64 { return p.queryUs(0.5) }},
	{"commit_ratio", "ratio", func(p *phase) float64 {
		return float64(p.tally.committed) / float64(p.tally.committed+p.tally.aborted)
	}},
	{"cpu_us_per_txn", "us", func(p *phase) float64 { return float64(p.cpu/time.Microsecond) / float64(p.done) }},
	{"heap_growth_bytes_per_txn", "B", func(p *phase) float64 { return p.heapGrowth }},
}

func noteTally(rep *report, label string, p *phase) {
	t := p.tally
	rep.note("%s: calls attempted=%d committed=%d aborted=%d queries=%d (read-back %d) abort_ratio=%.4f; %d timed calls in %.2fs; setup %.3fs, gate %.3fs",
		label, t.attempted, t.committed, t.aborted, t.queries, len(p.readback),
		float64(t.aborted)/float64(max(t.committed+t.aborted, 1)), p.done, p.wall.Seconds(), p.setup, p.gateWall.Seconds())
	rep.note("%s: errors timeout=%d crashed=%d other=%d error_ratio=%.4f",
		label, t.errTimeout, t.errCrashed, t.errOther, float64(t.failed())/float64(max(t.attempted, 1)))
	for _, c := range []struct {
		name string
		ds   []time.Duration
	}{{"update", p.updates}, {"query", p.queries}, {"read-back", p.readback}} {
		if len(c.ds) == 0 {
			continue
		}
		xs := us(c.ds)
		rep.note("%s: %s latency us (n=%d): p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f", label, c.name, len(xs),
			percentile(xs, 0.5), percentile(xs, 0.9), percentile(xs, 0.99), percentile(xs, 0.999), percentile(xs, 1))
	}
}

// routeShareMax is the largest share of timed calls one replica served.
func routeShareMax(delegates map[string]int) float64 {
	var total, top int
	for _, v := range delegates {
		total += v
		top = max(top, v)
	}
	return float64(top) / float64(max(total, 1))
}
