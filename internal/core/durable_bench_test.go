package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/wal"
)

// BenchmarkDurableGraphUpdate is the full durable write path on the
// real filesystem: encode, WAL append (group commit), incremental
// re-extraction. Each op is one 4-update batch.
func BenchmarkDurableGraphUpdate(b *testing.B) {
	w, base := durableWorld(b)
	st, err := OpenDurable(context.Background(), b.TempDir(), durableBoot(w, base),
		DurableOptions{Policy: wal.SyncBatch, FS: wal.OSFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(1000+i)), 4)
		if _, err := st.ApplyGraphUpdate(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkDurableMixedRead measures read throughput through View
// while a background writer streams graph batches into the store —
// the gsqlload -ingest-every scenario at the storage layer. ns/op is
// one locked read of the extracted relation.
func BenchmarkDurableMixedRead(b *testing.B) {
	w, base := durableWorld(b)
	ctx, stopWriter := context.WithCancel(context.Background())
	defer stopWriter()
	st, err := OpenDurable(ctx, b.TempDir(), durableBoot(w, base),
		DurableOptions{Policy: wal.SyncBatch, FS: wal.OSFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	writerDone := make(chan struct{})
	var writes atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ctx.Err() == nil; i++ {
			delta := graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(5000+i)), 2)
			if _, err := st.ApplyGraphUpdate(delta); err != nil {
				b.Error(err)
				return
			}
			writes.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rows := 0
		for pb.Next() {
			if err := st.View(func(bm *BaseMaterialization) error {
				rows += bm.Extracted.Len()
				return nil
			}); err != nil {
				b.Error(err)
				return
			}
		}
		_ = rows
	})
	b.StopTimer()
	stopWriter()
	<-writerDone
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "writes/s")
}
