package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"groupsafe/gsdb"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricPrinted runs every workload briefly, untraced and traced,
// and checks that each metric BENCHMARK.json names is printed and reported
// with its unit, and that the gate passed.
func TestEveryMetricPrinted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(context.Background(), &out, options{workload: w.Name, seed: 7, seconds: 0.3, trace: traced, spans: t.TempDir()})
				if err != nil || res == nil || !res.Correct {
					t.Fatalf("run failed: %v\n%s", err, out.String())
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !metricLine(out.String(), m.Name, m.Unit) {
						t.Errorf("metric %s with unit %s not printed", m.Name, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

func metricLine(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// corrupting wraps a target and makes one item's read-back return a value
// the harness never wrote.
type corrupting struct {
	target
	item int
}

func (c corrupting) read(ctx context.Context, replica int, items []int) (gsdb.Result, error) {
	res, err := c.target.read(ctx, replica, items)
	if _, ok := res.ReadValues[c.item]; ok && replica == replicas-1 {
		res.ReadValues[c.item] = -1
	}
	return res, err
}

// TestGateBites proves the gate fails a run whose read-back holds a value
// the harness never wrote, and passes the same run untouched.
func TestGateBites(t *testing.T) {
	s, err := findSpec("update-gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tg, err := openGsdb(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	lg := newLedgers(s)
	cs := newClients(s, 3, lg)
	runClients(ctx, tg, cs, 50, 0, false)

	var rb []time.Duration
	var tl tally
	if err := verify(ctx, tg, s, lg, &rb, &tl); err != nil {
		t.Fatalf("untouched run fails the gate: %v", err)
	}
	err = verify(ctx, corrupting{target: tg, item: s.items - 1}, s, lg, &rb, &tl)
	if err == nil || !strings.Contains(err.Error(), "reads -1") {
		t.Fatalf("gate passed a read-back value never written: %v", err)
	}
}

// diverging wraps a target and makes replica 2 hold different values for
// the first n items.
type diverging struct {
	target
	n int
}

func (d diverging) value(replica, item int) (int64, error) {
	v, err := d.target.value(replica, item)
	if replica == 2 && item < d.n {
		v--
	}
	return v, err
}

// TestDivergenceCensus checks that a failed convergence is reported with
// the number of items each replica holds differently.
func TestDivergenceCensus(t *testing.T) {
	s, err := findSpec("update-gs")
	if err != nil {
		t.Fatal(err)
	}
	tg, err := openGsdb(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	got := divergence(diverging{target: tg, n: 3}, s)
	want := fmt.Sprintf("replica 1: 0 of %d replica 2: 3 of %d", s.items, s.items)
	if !strings.HasSuffix(got, want) {
		t.Fatalf("census %q, want it to end with %q", got, want)
	}
}

// TestLedgerChecks covers the per-call checks: session tokens never go
// back, a query respects its floor, and a query of an item only its client
// writes returns that client's last acknowledged write.
func TestLedgerChecks(t *testing.T) {
	s, err := findSpec("read-session")
	if err != nil {
		t.Fatal(err)
	}
	write := call{ops: []gsdb.Op{{Item: 5, Write: true, Value: 42}}}
	read := call{query: true, ops: []gsdb.Op{{Item: 5}}}
	cases := []struct {
		name  string
		calls func(l *ledger)
		fails bool
	}{
		{"read your write", func(l *ledger) {
			l.observe(0, write, gsdb.Result{Outcome: gsdb.OutcomeCommitted, Freshness: 9}, nil, 0, 9)
			l.observe(0, read, gsdb.Result{ReadValues: map[int]int64{5: 42}, Freshness: 9}, nil, 9, 9)
		}, false},
		{"stale read of own write", func(l *ledger) {
			l.observe(0, write, gsdb.Result{Outcome: gsdb.OutcomeCommitted, Freshness: 9}, nil, 0, 9)
			l.observe(0, read, gsdb.Result{ReadValues: map[int]int64{5: 0}, Freshness: 9}, nil, 9, 9)
		}, true},
		{"token goes back", func(l *ledger) {
			l.observe(0, read, gsdb.Result{ReadValues: map[int]int64{5: 0}, Freshness: 9}, nil, 9, 8)
		}, true},
		{"served below floor", func(l *ledger) {
			l.observe(0, read, gsdb.Result{ReadValues: map[int]int64{5: 0}, Freshness: 3}, nil, 9, 9)
		}, true},
		{"aborted write invisible", func(l *ledger) {
			l.observe(0, write, gsdb.Result{Outcome: gsdb.OutcomeAborted}, nil, 0, 0)
			l.observe(0, read, gsdb.Result{ReadValues: map[int]int64{5: 0}}, nil, 0, 0)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedgers(s)[0]
			tc.calls(l)
			if failed := len(l.violations) > 0; failed != tc.fails {
				t.Fatalf("violations %v, want failure %v", l.violations, tc.fails)
			}
		})
	}
}
