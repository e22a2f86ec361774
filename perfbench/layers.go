package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// soloReadItems is the store size of the solo snapshot-read drive: the
// read-session keyspace, whatever the workload.
const soloReadItems = 1_000_000

// perLayer is the traced run.  It measures the workload twice, in rounds
// like the untraced run, each for half of d: through gsdb untraced
// (routing, tail latencies, process CPU and allocations, and the untraced
// latencies the traced ones are compared with), then one layer down with
// spans, a metered network and the layers' counters.  The solo drives
// follow.
func perLayer(ctx context.Context, rep *report, s spec, o options, h host, d time.Duration) error {
	rounds := max(1, int(d/2/roundLength))
	per := d / 2 / time.Duration(rounds)
	untraced := &phase{delegates: map[string]int{}}
	for k := 0; k < rounds; k++ {
		p, err := untracedRound(ctx, s, o.seed*1000+int64(k), per)
		if err != nil {
			return fmt.Errorf("untraced round %d: %w", k, err)
		}
		untraced.merge(p)
	}

	base := time.Now()
	var (
		sendUs []float64
		delta  counters
		spans  []roundSpans
	)
	traced := &phase{delegates: map[string]int{}}
	for k := 0; k < rounds; k++ {
		var tt *tracedTarget
		p, err := round(ctx, s, o.seed*1000+int64(k), per, func() (target, error) {
			var err error
			tt, err = openTraced(s, base)
			return tt, err
		}, func(timed func()) error {
			c0, err := tt.counters()
			if err != nil {
				return err
			}
			tt.rec.hookOn.Store(true)
			tt.rec.rootOn.Store(true)
			tt.net.on.Store(true)
			timed()
			tt.rec.rootOn.Store(false)
			tt.net.on.Store(false)
			c1, err := tt.counters()
			delta.add(c0, c1)
			return err
		})
		if err != nil {
			return fmt.Errorf("traced round %d: %w", k, err)
		}
		traced.merge(p)
		spans = append(spans, tt.spans())
		sendUs = append(sendUs, tt.net.sendUs()...)
	}

	abLat, err := soloAbcast(300 * time.Millisecond)
	if err != nil {
		return err
	}
	forces, err := soloForce(30)
	if err != nil {
		return err
	}
	reads, err := soloRead(soloReadItems, 300*time.Millisecond, o.seed)
	if err != nil {
		return err
	}

	rep.res.Attempted = untraced.tally.attempted + traced.tally.attempted
	rep.res.Failed = untraced.tally.failed() + traced.tally.failed()
	noteTally(rep, "untraced", untraced)
	noteTally(rep, "traced", traced)

	var exec, self, order, reply, lag []float64
	tracedUpdates := 0
	for _, rs := range spans {
		for _, u := range rs.updates {
			tracedUpdates++
			if !u.haveSubmit {
				continue
			}
			exec = append(exec, float64(u.root.end-u.root.start)/1e3)
			self = append(self, float64(u.submitAt-u.root.start)/1e3)
			order = append(order, float64(u.deliverAt-u.submitAt)/1e3)
			reply = append(reply, float64(u.root.end-u.deliverAt)/1e3)
			if u.haveLag {
				lag = append(lag, float64(u.lastAt-u.deliverAt)/1e3)
			}
		}
	}
	if len(exec) == 0 {
		return fmt.Errorf("traced run: no update was seen both sent and delivered at its delegate")
	}
	path := filepath.Join(o.spans, s.name+".jsonl")
	n, err := writeSpans(path, spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("spans of %d transactions written to %s (%d of %d traced updates seen sent and delivered at their delegate)", n, path, len(exec), tracedUpdates)

	updates := float64(traced.tally.committed + traced.tally.aborted)
	ab := delta.ab
	rep.add("gsdb.txn_per_s", float64(untraced.done)/untraced.wall.Seconds(), "1/s")
	rep.add("gsdb.route_share_max", routeShareMax(untraced.delegates), "ratio")
	rep.add("gsdb.update_p99_us", untraced.updateUs(0.99), "us")
	rep.add("gsdb.query_p99_us", untraced.queryUs(0.99), "us")
	rep.add("core.order_us_p50", percentile(order, 0.5), "us")
	rep.add("core.order_us_p99", percentile(order, 0.99), "us")
	rep.add("core.reply_us_p50", percentile(reply, 0.5), "us")
	rep.add("core.reply_us_p99", percentile(reply, 0.99), "us")
	rep.add("core.lag_us_p50", percentile(lag, 0.5), "us")
	rep.add("core.lag_us_p99", percentile(lag, 0.99), "us")
	rep.add("core.fresh_wakeups_per_delivery", float64(delta.wakeups)/float64(delta.delivered), "ratio")
	rep.add("core.abort_ratio", float64(traced.tally.aborted)/updates, "ratio")
	rep.add("abcast.msgs_per_update", float64(ab.MsgsSent)/updates, "count")
	rep.add("abcast.batch_size", float64(ab.Broadcast)/float64(ab.DataBatches), "count")
	rep.add("abcast.ack_width", float64(ab.Ordered)/float64(ab.AckSends), "count")
	rep.add("abcast.retransmits", float64(ab.NacksSent+ab.Retransmits), "count")
	rep.add("abcast.solo_order_us_p50", median(abLat), "us")
	rep.add("transport.bytes_per_update", float64(delta.bytes)/updates, "B")
	rep.add("transport.send_us_p50", median(sendUs), "us")
	rep.add("transport.dropped", float64(delta.dropped), "count")
	rep.add("db.syncs_per_update", float64(delta.syncs)/updates, "count")
	rep.add("wal.solo_force_us_p50", median(forces), "us")
	rep.add("storage.solo_read_us_p50", median(reads), "us")
	rep.add("proc.cpu_util", untraced.cpu.Seconds()/(untraced.wall.Seconds()*float64(h.nproc)), "ratio")
	rep.add("proc.allocs_per_txn", float64(untraced.allocs)/float64(untraced.done), "count")
	rep.add("trace.update_p50_us", traced.updateUs(0.5), "us")
	rep.add("trace.query_p50_us", traced.queryUs(0.5), "us")
	rep.add("trace.update_p50_delta_us", traced.updateUs(0.5)-untraced.updateUs(0.5), "us")
	rep.add("trace.query_p50_delta_us", traced.queryUs(0.5)-untraced.queryUs(0.5), "us")

	// Reconciliation.  client.submit, core.order and core.reply tile
	// client.execute, split at the delegate's DATA Send and its delivery;
	// the medians need not add up, and the note shows by how much.
	execP50, selfP50 := percentile(exec, 0.5), percentile(self, 0.5)
	orderP50, replyP50 := percentile(order, 0.5), percentile(reply, 0.5)
	solo := median(abLat)
	rep.add("recon.client_self_us_p50", selfP50, "us")
	rep.add("recon.handoff_tax_us", orderP50-solo, "us")
	rep.note("recon %s: client.execute p50 %.1fus; core.order p50 %.1fus + core.reply p50 %.1fus = %.1fus; remainder %.1fus against client self (client.submit) p50 %.1fus",
		s.name, execP50, orderP50, replyP50, orderP50+replyP50, execP50-orderP50-replyP50, selfP50)
	rep.note("recon %s: hand-off tax = core.order p50 %.1fus - abcast solo order p50 %.1fus = %.1fus",
		s.name, orderP50, solo, orderP50-solo)
	rep.note("tracing overhead (traced partition-level run minus untraced gsdb run): update p50 %+.1fus, query p50 %+.1fus",
		traced.updateUs(0.5)-untraced.updateUs(0.5), traced.queryUs(0.5)-untraced.queryUs(0.5))
	return nil
}
