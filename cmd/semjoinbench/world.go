package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/gsql"
	"semjoin/internal/obs"
	"semjoin/internal/server"
	"semjoin/internal/wal"
)

// workloadSpec is one traffic mix. The four specs differ in what the
// sessions do, not in code paths: every workload serves the same seeded
// fixture from the same server with the main relation's store OPEN.
type workloadSpec struct {
	Name string
	Why  string
	// Scan selects the heavy analytical read mix over the point mix.
	Scan bool
	// Writer: session 0 sends durable graph batches during the window.
	// A workload without one sends its batches after the window, with no
	// reader beside them (runTail).
	Writer bool
	// WriteEvery > 0 makes the writer open loop (one batch per
	// interval, timed from the due time); 0 is closed loop, full speed.
	WriteEvery time.Duration
	// BatchSize and Mixed pick the batch generator (graph.RandomBatch
	// or graph.RandomMixedBatch).
	BatchSize int
	Mixed     bool
	// ReadThink is how long a reader session pauses between a response
	// and its next request; the readers are always closed loop. (An
	// open-loop reader beside a saturating writer was tried: reads
	// complete about once per batch, so any rate near that lets the
	// backlog grow for the whole window and the latencies measure its
	// length, and the read tail moved by a third between runs.)
	ReadThink time.Duration
	// OSFS puts the store on the real filesystem (under the work dir)
	// instead of wal.MemFS.
	OSFS bool
	// CheckpointAt issues one CHECKPOINT at this share of the window.
	CheckpointAt float64
	// Warmup is the number of read requests each session sends before
	// the window; it is part of set-up.
	Warmup int
}

var workloads = []workloadSpec{
	{Name: "read_point", BatchSize: 4, Warmup: 300,
		Why: "closed loop of short well-behaved reads: the workload where wire, admission, parse, plan and RLockAll weigh most against the kernels"},
	{Name: "read_scan", Scan: true, BatchSize: 4, Warmup: 5,
		Why: "closed loop of few heavy analytical reads; rel kernels, reach/BFS and result encoding dominate, so a parser or admission win must show no change here"},
	{Name: "mixed_ingest", Writer: true, WriteEvery: 100 * time.Millisecond, BatchSize: 4, Warmup: 300,
		Why: "closed-loop point reads beside a fixed open-loop stream of durable 4-update batches on MemFS; the fixed write load makes reader stall comparable across commits"},
	{Name: "ingest_heavy", Writer: true, BatchSize: 16, Mixed: true, ReadThink: 20 * time.Millisecond,
		OSFS: true, CheckpointAt: 0.75, Warmup: 50,
		Why: "closed-loop writer of 16-update mixed batches at full speed on the real FS beside a light reader (20 ms think time), one CHECKPOINT, then recovery; IncExt, wal and graph do nearly all the work"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// fsName and walPolicy describe the store for the result record.
func (s workloadSpec) fsName() string {
	if s.OSFS {
		return "os"
	}
	return "mem"
}

const walPolicy = wal.SyncBatch

// updateSeed seeds every update stream. Like the fixture it is fixed:
// what a batch costs depends on which edges it happens to touch, a
// window holds only a hundred or so batches, and the read tail under
// ingest is set by the costliest few of them, so a per-seed stream
// moves read_p95_ms by a third between seeds with the code unchanged.
// -seed varies the read streams.
const updateSeed = fixtureSeed

// options are the settings of one run.
type options struct {
	Scale    int           // entities of the generated collection: fullScale, or smokeScale
	Seed     uint64        // the read request streams derive from it
	Seconds  float64       // timed window
	Deadline time.Duration // per-request client deadline (blow-up guard)
	WorkDir  string        // OSFS stores live in a temp dir under it
	Sessions int           // wire sessions = goroutines driving load: the cores, 2 at least
}

// world is one set-up: fixture, open store, listening server, connected
// and warmed sessions.
type world struct {
	spec workloadSpec
	opt  options
	fix  *fixture
	in   genInputs
	reg  *obs.Registry

	fs      wal.FS
	dir     string // store directory as OPENed
	tempDir string // removed on close; "" on MemFS
	store   *core.DurableStore

	srv      *server.Server
	serveErr chan error
	addr     string
	clients  []*client
	gens     []generator
	// ingest is the one update stream of the run: the writer's on an
	// ingest workload, the quiet tail's and the traced probe writes' on
	// a read-only one. One stream, because every batch is drawn against
	// the graph as the batches before it left it.
	ingest *ingestGen

	baseGoroutines int
	checkpointMS   float64
	setupS         float64
}

// setUp builds everything a window needs and times it: this is setup_s.
func setUp(spec workloadSpec, opt options) (w *world, err error) {
	start := time.Now()
	w = &world{spec: spec, opt: opt, reg: obs.NewRegistry(), baseGoroutines: runtime.NumGoroutine()}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	if w.fix, err = buildFixture(opt.Scale); err != nil {
		return w, fmt.Errorf("fixture: %w", err)
	}
	w.in = newGenInputs(w.fix.C)

	// The store: OPEN through the engine, as an operator would, then
	// one CHECKPOINT so recovery always has a snapshot to load.
	w.fs, w.dir = wal.NewMemFS(), "mem/"+mainRel
	if spec.OSFS {
		if w.tempDir, err = os.MkdirTemp(opt.WorkDir, ".semjoinbench-"); err != nil {
			return w, err
		}
		w.fs, w.dir = wal.OSFS{}, filepath.Join(w.tempDir, mainRel)
	}
	w.fix.Cat.DurableOpts = core.DurableOptions{Policy: walPolicy, FS: w.fs, Reg: w.reg}
	eng := gsql.NewEngine(w.fix.Cat)
	eng.Obs = w.reg
	if _, err = eng.Query("OPEN " + mainRel + " " + w.dir); err != nil {
		return w, err
	}
	w.store = w.fix.Cat.Durable.Get(mainRel)
	t := time.Now()
	if _, err = eng.Query("CHECKPOINT " + mainRel); err != nil {
		return w, err
	}
	w.checkpointMS = ms(time.Since(t))

	// The server: loopback TCP, tracing off (rate 0, private stores so
	// nothing leaks into the process-wide defaults).
	srv, err := server.New(server.Config{
		Cat: w.fix.Cat, Mode: gsql.ModeAuto, Reg: w.reg,
		Tracer: obs.NewTracer(0, 0), Traces: obs.NewTraceStore(16), Queries: obs.NewQueryLog(),
	})
	if err != nil {
		return w, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, err
	}
	w.addr = ln.Addr().String()
	w.serveErr = make(chan error, 1)
	w.srv = srv // from here on close() must shut it down and wait for Serve
	go func() { w.serveErr <- srv.Serve(ln) }()

	// Sessions, generators, warm-up. Stream seeds are spread so no two
	// sessions replay each other.
	for i := 0; i < opt.Sessions; i++ {
		c, derr := dial(w.addr, opt.Deadline)
		if derr != nil {
			return w, fmt.Errorf("session %d: %w", i, derr)
		}
		w.clients = append(w.clients, c)
		if err = c.prepare(pointLJoinName, pointLJoinSQL); err != nil {
			return w, err
		}
		g, gerr := w.readGen(int64(opt.Seed)*1000003 + int64(i)*7919)
		if gerr != nil {
			return w, gerr
		}
		w.gens = append(w.gens, g)
	}
	w.ingest = newIngestGen(w.in, updateSeed, spec.BatchSize, spec.Mixed)
	if spec.Writer {
		w.gens[0] = w.ingest
	}
	for i, c := range w.clients {
		if spec.Writer && i == 0 {
			continue
		}
		for j := 0; j < spec.Warmup; j++ {
			r := w.gens[i].next()
			resp, _, derr := c.do(r.Wire)
			if derr != nil || !resp.OK {
				return w, fmt.Errorf("warm-up %q: %v %s", r.Text, derr, resp.Error)
			}
		}
	}
	w.setupS = time.Since(start).Seconds()
	return w, nil
}

// readGen is the workload's read mix as a fresh stream.
func (w *world) readGen(seed int64) (generator, error) {
	if w.spec.Scan {
		return newScanGen(w.in, seed)
	}
	return newPointGen(w.in, seed), nil
}

// stopServing closes the sessions and shuts the server and the store
// down: the state recovery starts from.
func (w *world) stopServing() error {
	for _, c := range w.clients {
		c.close()
	}
	w.clients = nil
	var first error
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = w.srv.Shutdown(ctx)
		cancel()
		<-w.serveErr
		w.srv = nil
	}
	if w.fix != nil && w.fix.Cat.Durable != nil {
		if err := w.fix.Cat.Durable.Close(); err != nil && first == nil {
			first = err
		}
		w.fix.Cat.Durable = nil
	}
	return first
}

// close releases everything; safe on a half-built world.
func (w *world) close() {
	_ = w.stopServing()
	if w.tempDir != "" {
		os.RemoveAll(w.tempDir)
		w.tempDir = ""
	}
}

// leakedGoroutines waits briefly for the goroutine count to settle back
// to the pre-boot level and returns the excess.
func (w *world) leakedGoroutines() int {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > w.baseGoroutines {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - w.baseGoroutines; n > 0 {
		return n
	}
	return 0
}

// storeFiles is what a store directory holds, by kind.
type storeFiles struct {
	LogBytes, SnapBytes int64
	NewestSnap          int64 // size of the newest snapshot
	Segments            int
}

// storeBytes sizes the files of the store directory.
func (w *world) storeBytes() (storeFiles, error) {
	var f storeFiles
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return f, err
	}
	for _, name := range names {
		data, err := w.fs.ReadFile(w.dir + "/" + name)
		if err != nil {
			return f, err
		}
		switch {
		case strings.HasPrefix(name, "snap-"):
			f.SnapBytes += int64(len(data))
			f.NewestSnap = int64(len(data)) // ReadDir is sorted; names carry the seq
		case strings.HasPrefix(name, "wal-"):
			f.LogBytes += int64(len(data))
			f.Segments++
		}
	}
	return f, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
