package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/obs"
)

// recoveryResult is the restart drill every workload ends with.
type recoveryResult struct {
	Seconds []float64 // one per repeat
	// Span durations of a traced recovery (ms); traced runs only.
	SnapshotLoadMS, WALOpenMS, ReplayMS float64
	Records                             int // WAL records replayed past the snapshot
	LostAcks                            int
	StateEqual                          bool // recovered extraction bag-equals the pre-shutdown one
	storeFiles                               // what the store left on its FS at shutdown
}

// A short recovery is repeated, and recovery_s is the median: up to
// recoveryRepeats times, while the repeats so far have taken less than
// recoveryBudget of the window's length. A recovery longer than that
// runs once, and is long enough to be steady on its own.
const (
	recoveryBudget  = 0.15
	recoveryRepeats = 100
)

// recoverStore stops the server and the store, then reopens the store
// directory with core.OpenDurable — snapshot load plus replay of the
// log tail — and checks that nothing acknowledged was lost: every acked
// sequence number is at or below the recovered log's last, and the
// recovered extracted relation bag-equals the one the live store held.
// The timed repeats run with tracing off; a traced run adds one untimed
// recovery under an obs trace for the spans inside OpenDurable.
func (w *world) recoverStore(maxAckedSeq uint64, traced bool) (*recoveryResult, error) {
	before := w.store.Base().Extracted
	beforeSchema, beforeRows := before.Schema.String(), digestRelation(before)
	if err := w.stopServing(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	res := &recoveryResult{StateEqual: true}
	var err error
	if res.storeFiles, err = w.storeBytes(); err != nil {
		return nil, err
	}
	boot := core.DurableBoot{Models: w.fix.Cat.Models, Cfg: w.fix.rextConfig(), Matcher: w.fix.Cat.Matcher}
	opts := core.DurableOptions{Policy: walPolicy, FS: w.fs}

	budget := time.Duration(recoveryBudget * w.opt.Seconds * float64(time.Second))
	var spent time.Duration
	runtime.GC() // the served store's garbage is not the recovery's to collect
	for i := 0; i < recoveryRepeats && (i == 0 || spent < budget); i++ {
		t := time.Now()
		st, err := core.OpenDurable(context.Background(), w.dir, boot, opts)
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		spent += d
		res.Seconds = append(res.Seconds, d.Seconds())
		if i == 0 {
			res.Records = int(st.LastSeq() - st.SnapshotSeq())
			if maxAckedSeq > st.LastSeq() {
				res.LostAcks = int(maxAckedSeq - st.LastSeq())
			}
			after := st.Base().Extracted
			res.StateEqual = after.Schema.String() == beforeSchema && digestRelation(after) == beforeRows
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	if traced {
		tr := obs.NewTracer(1, 0).Start("recover", 0)
		st, err := core.OpenDurable(obs.ContextWithTrace(context.Background(), tr), w.dir, boot, opts)
		if err != nil {
			return nil, fmt.Errorf("traced recovery: %w", err)
		}
		tr.Root.Walk(func(sp *obs.Span, _ int) {
			switch sp.Name {
			case "snapshot_load":
				res.SnapshotLoadMS = ms(sp.Duration)
			case "wal_open":
				res.WALOpenMS = ms(sp.Duration)
			case "wal_replay":
				res.ReplayMS = ms(sp.Duration)
			}
		})
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
