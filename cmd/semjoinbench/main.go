// Command semjoinbench is the repository's benchmark: one seeded
// fixture served by an in-process gsql server on loopback TCP, four
// workloads that stress different layers, end-to-end metrics measured
// with tracing off, and a traced run that attributes request time to
// the layer that spent it. README.md in this directory documents every
// metric, why each workload exists and how to reproduce a number;
// BENCHMARK.json at the repository root is the contract the benchmark
// driver runs it by.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	opt      options
	workload string
	trace    int
	repeat   int
	jsonOut  string
	traceOut string
	compare  bool
	args     []string
}

// Scale is the entities of the generated Drugs collection: set-up goes
// through the full model training, which costs 13 s at 300 entities and
// 25 s at the issue's 1 000, and 92 runs have to fit the driver's time
// cap. The smoke path keeps every code path and little else.
const (
	fullScale  = 300
	smokeScale = 40
)

// memLimit is the soft memory limit of a run (debug.SetMemoryLimit); the
// run aborts, non-zero, at twice this instead of being OOM-killed. A
// healthy run stays under 300 MB.
const memLimit = 4 << 30

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	// One goroutine per wire session and never more sessions than cores;
	// two at least, a writer and a reader.
	c.opt.Scale, c.opt.Sessions = fullScale, max(2, runtime.NumCPU())
	fs := flag.NewFlagSet("semjoinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usageText)
		fs.PrintDefaults()
	}
	fs.StringVar(&c.workload, "workload", "", "run one workload (read_point, read_scan, mixed_ingest, ingest_heavy) and print the driver's JSON line last; empty runs all four, untraced then traced")
	fs.Uint64Var(&c.opt.Seed, "seed", 7, "seed of the read request streams (the fixture and the update streams are fixed)")
	fs.Float64Var(&c.opt.Seconds, "seconds", 10, "timed window of one run, seconds")
	fs.IntVar(&c.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 runs the traced replay and reports the per-layer metrics")
	fs.DurationVar(&c.opt.Deadline, "deadline", 10*time.Second, "per-request client deadline; a request that outlives it is a counted failure and its query text is recorded")
	fs.StringVar(&c.opt.WorkDir, "workdir", ".", "directory under which a workload on the real filesystem creates (and removes) its store")
	fs.IntVar(&c.repeat, "repeat", 1, "untraced runs per workload, seeds seed..seed+N-1; prints median, quartiles and spread against each bound")
	fs.StringVar(&c.jsonOut, "json", "", "write the result record (schema, commit, host, settings, every run, spreads) to this file")
	fs.StringVar(&c.traceOut, "trace-out", "trace.json", "where a traced run writes its spans")
	fs.BoolVar(&c.compare, "compare", false, "compare two result records: -compare parent.json change.json; exit 1 on a regression beyond bound")
	smoke := fs.Bool("smoke", false, "tiny scale (40 entities), one-second windows: every workload, untraced and traced, end to end")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *smoke {
		c.opt.Scale, c.opt.Seconds = smokeScale, 1
	}
	c.args = fs.Args()
	switch {
	case c.compare && len(c.args) != 2:
		return nil, fmt.Errorf("-compare takes two result records")
	case !c.compare && len(c.args) != 0:
		return nil, fmt.Errorf("unexpected arguments %q", c.args)
	case c.opt.Seconds <= 0 || c.repeat < 1:
		return nil, fmt.Errorf("-seconds and -repeat must be positive")
	case c.trace != 0 && c.trace != 1:
		return nil, fmt.Errorf("-trace is 0 or 1")
	}
	return c, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "semjoinbench:", err)
		}
		return 2
	}
	if c.compare {
		var recs [2]*record
		for i, path := range c.args {
			if recs[i], err = readRecord(path); err != nil {
				fmt.Fprintln(stderr, "semjoinbench:", err)
				return 2
			}
		}
		if n := compare(stdout, recs[0], recs[1]); n > 0 {
			fmt.Fprintf(stdout, "%d regression(s) beyond bound\n", n)
			return 1
		}
		return 0
	}
	stop := guardMemory(memLimit, stderr)
	defer stop()

	if c.workload != "" {
		return runOne(c, stdout, stderr)
	}
	return runAll(c, stdout, stderr)
}

// runOne is the driver's form: one workload, one mode, JSON line last.
func runOne(c *config, stdout, stderr io.Writer) int {
	spec, ok := workloadByName(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "semjoinbench: unknown workload %q\n", c.workload)
		return 2
	}
	var res *runResult
	var err error
	if c.trace == 1 {
		res, err = runTraced(spec, c.opt, c.traceOut)
	} else {
		res, err = runUntraced(spec, c.opt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "semjoinbench: %s: %v\n", spec.Name, err)
		return 1
	}
	printRun(stdout, res)
	if err := driverLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "semjoinbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload: -repeat untraced runs (seeds seed,
// seed+1, ...) and one traced run, prints every metric, the spreads
// and the layer-share tables, and writes the record if asked to.
func runAll(c *config, stdout, stderr io.Writer) int {
	rec := newRecord(c.opt)
	status := 0
	for _, spec := range workloads {
		wr := workloadRecord{Name: spec.Name, FS: spec.fsName(), Policy: walPolicy.String()}
		for i := 0; i < c.repeat; i++ {
			opt := c.opt
			opt.Seed += uint64(i)
			res, err := runUntraced(spec, opt)
			if err != nil {
				fmt.Fprintf(stderr, "semjoinbench: %s: %v\n", spec.Name, err)
				return 1
			}
			printRun(stdout, res)
			wr.Runs = append(wr.Runs, res)
			if !res.Correct {
				status = 1
			}
		}
		// One span file per workload, beside the path asked for.
		tracePath := filepath.Join(filepath.Dir(c.traceOut), spec.Name+"."+filepath.Base(c.traceOut))
		traced, err := runTraced(spec, c.opt, tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "semjoinbench: %s (traced): %v\n", spec.Name, err)
			return 1
		}
		printRun(stdout, traced)
		wr.Traced = traced
		if !traced.Correct {
			status = 1
		}
		wr.summarise()
		rec.Workloads = append(rec.Workloads, wr)
	}
	printSummary(stdout, rec)
	if c.jsonOut != "" {
		if err := writeRecord(c.jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, "semjoinbench:", err)
			return 1
		}
	}
	return status
}

// guardMemory is the blow-up guard's memory half. The soft limit makes
// the collector work harder as the heap approaches it; a watchdog ends
// the run with a message at twice the limit, because a plan that
// materialises a cross product (Drugs-q2 unshrunk took 16 GB) outruns
// any collector, and an OOM kill would take the results with it.
func guardMemory(limit int64, stderr io.Writer) (stop func()) {
	prev := debug.SetMemoryLimit(limit)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				metrics.Read(sample)
				if live := int64(sample[0].Value.Uint64()); live > 2*limit {
					fmt.Fprintf(stderr, "semjoinbench: memory guard: %d MB of live heap, limit %d MB; aborting\n", live>>20, limit>>20)
					os.Exit(3)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		debug.SetMemoryLimit(prev)
	}
}
