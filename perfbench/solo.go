package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/wal"
)

// soloAbcast drives a bare 3-member atomic broadcast group with two
// closed-loop senders (members 0 and 1) for d and returns the latency from
// Broadcast to delivery at the sender's own member, in microseconds: the
// floor under core.order on update-gs.
func soloAbcast(d time.Duration) ([]float64, error) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	const senders = 2
	var (
		bcs     []*abcast.Broadcaster
		routers []*gcs.Router
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	done := make([]chan struct{}, senders)
	defer func() {
		close(stop)
		wg.Wait()
		for i := range bcs {
			bcs[i].Close()
			routers[i].Stop()
		}
	}()
	for m, addr := range addrs {
		router := gcs.NewRouter(net.Endpoint(addr))
		b, err := abcast.New(abcast.Config{Self: addr, Members: addrs}, router)
		if err != nil {
			return nil, fmt.Errorf("abcast group: %w", err)
		}
		router.Start()
		bcs, routers = append(bcs, b), append(routers, router)
		if m < senders {
			done[m] = make(chan struct{}, 1)
		}
		wg.Add(1)
		go func(m int, b *abcast.Broadcaster) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case dl := <-b.Deliveries():
					if m < senders && int(dl.Payload[0]) == m {
						select {
						case done[m] <- struct{}{}:
						case <-stop:
							return
						}
					}
				}
			}
		}(m, b)
	}

	lat := make([][]float64, senders)
	errs := make([]error, senders)
	deadline := time.Now().Add(d)
	var sw sync.WaitGroup
	for s := 0; s < senders; s++ {
		sw.Add(1)
		go func(s int) {
			defer sw.Done()
			payload := make([]byte, 9)
			payload[0] = byte(s)
			for n := uint64(0); time.Now().Before(deadline); n++ {
				binary.LittleEndian.PutUint64(payload[1:], n)
				start := time.Now()
				if _, err := bcs[s].Broadcast(payload); err != nil {
					errs[s] = err
					return
				}
				<-done[s]
				lat[s] = append(lat[s], float64(time.Since(start))/1e3)
			}
		}(s)
	}
	sw.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("abcast broadcast: %w", err)
		}
	}
	return append(lat[0], lat[1]...), nil
}

// soloForce times MemLog.Sync at the benchmark's emulated force latency,
// alone: the floor under each log force on update-2safe.
func soloForce(n int) ([]float64, error) {
	log := wal.NewMemLogWithDelay(diskSync)
	defer log.Close()
	out := make([]float64, n)
	for i := range out {
		if _, err := log.Append(wal.Record{Kind: wal.KindCommit, TxnID: uint64(i + 1)}); err != nil {
			return nil, fmt.Errorf("wal append: %w", err)
		}
		start := time.Now()
		if err := log.Sync(); err != nil {
			return nil, fmt.Errorf("wal sync: %w", err)
		}
		out[i] = float64(time.Since(start)) / 1e3
	}
	return out, nil
}

// soloRead times snapshot read transactions of 3 random items (db.BeginRead,
// Read, Close) on a database of the given size, alone: the floor under a
// query on read-session.
func soloRead(items int, d time.Duration, seed int64) ([]float64, error) {
	dbase, err := db.Open(db.Config{Items: items})
	if err != nil {
		return nil, fmt.Errorf("db open: %w", err)
	}
	defer dbase.Close()
	r := rand.New(rand.NewSource(seed))
	var out []float64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		a, b, c := r.Intn(items), r.Intn(items), r.Intn(items)
		start := time.Now()
		rt, err := dbase.BeginRead()
		if err != nil {
			return nil, fmt.Errorf("db begin read: %w", err)
		}
		for _, it := range [3]int{a, b, c} {
			if _, err := rt.Read(it); err != nil {
				return nil, fmt.Errorf("db read: %w", err)
			}
		}
		rt.Close()
		out = append(out, float64(time.Since(start))/1e3)
	}
	return out, nil
}
