package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"semjoin/internal/gsql"
	"semjoin/internal/obs"
	"semjoin/internal/server"
)

// sessionLog is what one session saw during the window.
type sessionLog struct {
	readMS   []float64
	readAt   []time.Time // when each read of readMS completed
	okAt     []time.Time // when each OK response arrived, reads and acks alike
	ingestMS []float64
	lagMS    []float64 // open loop: send time - due time

	reads []okRead // every OK read, for the reference check
	seqs  []uint64 // acked WAL sequence numbers, in ack order

	ok, errs, sheds, timeouts int
	updates                   int // graph updates acked
	firstErr                  string
	timedOut                  []string // query text of every client timeout
}

// okRead is one OK read response, reduced to what the check needs.
type okRead struct {
	Text string
	Got  digest
}

// record tallies one response. due is when the request should have been
// sent (== sent for a closed loop); latency counts from there, so a
// stall shows up in the requests that had to wait behind it.
func (l *sessionLog) record(r request, resp server.Response, err error, due, sent, done time.Time) {
	isIngest := r.Wire.Op == server.OpIngest
	if isIngest {
		l.lagMS = append(l.lagMS, ms(sent.Sub(due)))
	}
	switch {
	case errors.Is(err, errDeadline):
		l.timeouts++
		l.timedOut = append(l.timedOut, r.Family+": "+r.Text)
	case err != nil:
		l.errs++
		l.noteErr(err.Error())
	case resp.Code == "busy":
		l.sheds++
	case !resp.OK:
		l.errs++
		l.noteErr(r.Family + ": " + resp.Error)
	case isIngest:
		l.ok++
		l.okAt = append(l.okAt, done)
		l.ingestMS = append(l.ingestMS, ms(done.Sub(due)))
		l.updates += len(r.Batch)
		l.seqs = append(l.seqs, resp.Seq)
	case r.Text != "":
		l.ok++
		l.okAt = append(l.okAt, done)
		l.readMS = append(l.readMS, ms(done.Sub(due)))
		l.readAt = append(l.readAt, done)
		l.reads = append(l.reads, okRead{Text: r.Text, Got: digestRows(resp.Rows)})
	default: // a statement such as CHECKPOINT
		l.ok++
		l.okAt = append(l.okAt, done)
	}
}

func (l *sessionLog) noteErr(msg string) {
	if l.firstErr == "" {
		l.firstErr = msg
	}
}

// windowResult is one timed window, merged over its sessions.
type windowResult struct {
	Elapsed  float64 // seconds, start to the last session's last response
	Sessions []*sessionLog
	// Slices cuts the window into windowSlices equal parts; the timing
	// metrics are medians over them (see sliced).
	Slices []windowSlice

	ReadMS, IngestMS, LagMS   []float64 // merged, ascending
	OK, Errs, Sheds, Timeouts int
	Wrong                     int // reads that disagree with the reference
	Updates                   int
	// IngestSeconds is how long batches were being sent: the window on
	// an ingest workload, the quiet tail on a read-only one.
	IngestSeconds float64
	// WindowRequests are the requests attempted inside the window, which
	// RespBytes and AllocBytes are counted over.
	WindowRequests int
	RespBytes      int64
	AllocBytes     uint64
	GCPauseMS      float64
	HeapInuseMB    float64
	FirstErr       string
	TimedOut       []string
	SeqsIncreasing bool
	MaxSeq         uint64
}

// windowSlice is one part of the window: the OK responses that arrived
// in it and the latencies of the reads that completed in it.
type windowSlice struct {
	Seconds float64
	OK      int
	ReadMS  []float64 // ascending
}

// windowSlices is how many parts a window is cut into. The host this
// runs on slows down in bursts (a noisy neighbour, the kernel reclaiming
// memory); a figure taken over the whole window moves with every burst,
// the median of the parts' figures only with one that covers most of
// the window.
const windowSlices = 5

// sliced evaluates f on every slice and returns the median.
func (r *windowResult) sliced(f func(windowSlice) float64) float64 {
	vals := make([]float64, len(r.Slices))
	for i, sl := range r.Slices {
		vals[i] = f(sl)
	}
	return median(vals)
}

func (r *windowResult) throughput() float64 {
	return r.sliced(func(sl windowSlice) float64 { return float64(sl.OK) / sl.Seconds })
}

func (r *windowResult) readPercentile(p float64) float64 {
	return r.sliced(func(sl windowSlice) float64 { return percentile(sl.ReadMS, p) })
}

func (r *windowResult) attempted() int { return r.OK + r.Errs + r.Sheds + r.Timeouts }
func (r *windowResult) failed() int    { return r.Errs + r.Sheds + r.Timeouts + r.Wrong }

// runWindow drives the workload's sessions for the given time: one
// goroutine per session, nothing else. The writer (if any) is session
// 0; the CHECKPOINT of a checkpointing workload is sent by the last
// reader session, as one more request of its stream.
func (w *world) runWindow(seconds float64) *windowResult {
	spec := w.spec
	res := &windowResult{Sessions: make([]*sessionLog, len(w.clients))}
	var respBytes0 int64
	for _, c := range w.clients {
		respBytes0 += c.respBytes
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	checkpointAt := time.Time{}
	if spec.CheckpointAt > 0 {
		checkpointAt = start.Add(time.Duration(spec.CheckpointAt * seconds * float64(time.Second)))
	}
	var wg sync.WaitGroup
	for i := range w.clients {
		log := &sessionLog{}
		res.Sessions[i] = log
		every, think := time.Duration(0), spec.ReadThink
		if spec.Writer && i == 0 {
			every, think = spec.WriteEvery, 0
		}
		var extra *time.Time
		if i == len(w.clients)-1 && !checkpointAt.IsZero() {
			extra = &checkpointAt
		}
		wg.Add(1)
		go func(c *client, g generator) {
			defer wg.Done()
			driveSession(c, g, log, start, end, every, think, extra)
		}(w.clients[i], w.gens[i])
	}
	wg.Wait()
	res.Elapsed = time.Since(start).Seconds()

	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.HeapInuseMB = float64(m1.HeapInuse) / (1 << 20)
	for _, c := range w.clients {
		res.RespBytes += c.respBytes
	}
	res.RespBytes -= respBytes0

	res.SeqsIncreasing = true
	for _, l := range res.Sessions {
		res.absorb(l)
	}
	res.WindowRequests = res.attempted()
	if spec.Writer {
		res.IngestSeconds = res.Elapsed
	}

	// Slices: equal parts of the nominal window; whatever completed
	// after its end belongs to the last part, which is that much longer.
	part := seconds / windowSlices
	res.Slices = make([]windowSlice, windowSlices)
	sliceOf := func(at time.Time) int {
		return min(int(at.Sub(start).Seconds()/part), windowSlices-1)
	}
	for i := range res.Slices {
		res.Slices[i].Seconds = part
	}
	res.Slices[windowSlices-1].Seconds = res.Elapsed - part*(windowSlices-1)
	for _, l := range res.Sessions {
		for _, at := range l.okAt {
			res.Slices[sliceOf(at)].OK++
		}
		for i, at := range l.readAt {
			sl := &res.Slices[sliceOf(at)]
			sl.ReadMS = append(sl.ReadMS, l.readMS[i])
		}
	}
	for i := range res.Slices {
		sort.Float64s(res.Slices[i].ReadMS)
	}
	return res
}

// absorb merges one session's log into the totals.
func (r *windowResult) absorb(l *sessionLog) {
	r.ReadMS = append(r.ReadMS, l.readMS...)
	r.IngestMS = append(r.IngestMS, l.ingestMS...)
	r.LagMS = append(r.LagMS, l.lagMS...)
	sort.Float64s(r.ReadMS)
	sort.Float64s(r.IngestMS)
	r.OK += l.ok
	r.Errs += l.errs
	r.Sheds += l.sheds
	r.Timeouts += l.timeouts
	r.Updates += l.updates
	r.TimedOut = append(r.TimedOut, l.timedOut...)
	if r.FirstErr == "" {
		r.FirstErr = l.firstErr
	}
	for j, s := range l.seqs {
		if j > 0 && s <= l.seqs[j-1] {
			r.SeqsIncreasing = false
		}
		if s > r.MaxSeq {
			r.MaxSeq = s
		}
	}
}

// tailBatchesPerSecond sets the length of a read-only workload's quiet
// tail from the window's: a count, not a time, so that the log the tail
// leaves behind (and with it wal_bytes_per_update and the recovery's
// replay) is the same every run.
const tailBatchesPerSecond = 6

// runTail gives a read-only workload its write side: after the window
// and its read check, session 0 sends tailBatches durable batches closed
// loop with no reader beside it (tailBatchesPerSecond for every second
// of the window). Every workload then reports every
// ingest metric, the restart drill always has a tail to replay, and the
// figures here are the uncontended base the ingest workloads' compare
// with. (After the check, because the gL cache is not invalidated by
// ingest and reads that follow a write may be answered from stale
// connectivity.)
func (w *world) runTail(res *windowResult) {
	log := &sessionLog{}
	runtime.GC() // the window's and the check's garbage is not the tail's to collect
	start := time.Now()
	for i := 0; i < int(tailBatchesPerSecond*w.opt.Seconds); i++ {
		r := w.ingest.next()
		sent := time.Now()
		resp, _, err := w.clients[0].do(r.Wire)
		log.record(r, resp, err, sent, sent, time.Now())
	}
	res.IngestSeconds = time.Since(start).Seconds()
	res.absorb(log)
}

// driveSession is one session's loop. every == 0 is a closed loop: the
// next request goes out when the previous response is in and think has
// passed. every > 0 is an open loop: request i is due at start +
// i*every whatever happened to request i-1, and its latency counts from
// that due time. extra, if set, is the moment to slip one CHECKPOINT
// into the stream.
func driveSession(c *client, g generator, log *sessionLog, start, end time.Time, every, think time.Duration, extra *time.Time) {
	for i := 0; ; i++ {
		due := time.Now()
		if every > 0 {
			due = start.Add(time.Duration(i) * every)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		if !due.Before(end) {
			return
		}
		if extra != nil && !time.Now().Before(*extra) {
			extra = nil
			r := request{Family: "checkpoint", Wire: server.Request{Op: server.OpQuery, Query: "CHECKPOINT " + mainRel}}
			sent := time.Now()
			resp, _, err := c.do(r.Wire)
			log.record(r, resp, err, sent, sent, time.Now())
		}
		r := g.next()
		sent := time.Now()
		if every == 0 {
			due = sent
		}
		resp, _, err := c.do(r.Wire)
		log.record(r, resp, err, due, sent, time.Now())
		time.Sleep(think)
	}
}

// checkReads compares every OK read of the window with the result of a
// serial in-process engine (Parallelism 1) over the same catalog, up to
// row order, and counts the disagreements. The gL cache is emptied
// first: it holds the connectivity relations the server under test
// computed, and a reference read from it would compare a wrong parallel
// BFS with itself. Only meaningful while the store is unchanged since
// the window, i.e. for the read-only workloads; it must run before the
// server is stopped. (After the window and not in set-up: which texts a
// window sends is known only once it has run, and references for a
// stream's whole reachable set would be set-up time the program under
// test never spends.)
func (w *world) checkReads(res *windowResult) error {
	w.fix.Cat.Mat.ClearGLCache()
	ref := gsql.NewEngine(w.fix.Cat)
	ref.Parallelism = 1
	ref.Obs = obs.NewRegistry() // the reference's cache traffic is not the server's
	want := map[string]digest{}
	for _, l := range res.Sessions {
		for _, rd := range l.reads {
			d, ok := want[rd.Text]
			if !ok {
				out, err := ref.Query(rd.Text)
				if err != nil {
					return fmt.Errorf("reference for %q: %w", rd.Text, err)
				}
				d = digestRelation(out)
				want[rd.Text] = d
			}
			if rd.Got != d {
				res.Wrong++
				if res.FirstErr == "" {
					res.FirstErr = fmt.Sprintf("wrong result for %q: got %d rows sum %x, want %d rows sum %x",
						rd.Text, rd.Got.Rows, rd.Got.Sum, d.Rows, d.Sum)
				}
			}
		}
	}
	return nil
}
