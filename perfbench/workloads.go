package main

import (
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/bench"
	"github.com/hyperprov/hyperprov/internal/identity"
	hpmetrics "github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

const (
	// ingestWarmup is excluded from ingest's measured window.
	ingestWarmup = 2 * time.Second
	// rssWrites is the write count at which ingest reads its peak RSS. The
	// network's ledgers are in memory and grow with every write, so a
	// reading at the window's end would rise with throughput. The loop runs
	// past the window until then, for at most rssGrace.
	rssWrites = 2000
	rssGrace  = 30 * time.Second
)

// timeline is a run's measured window [start, end). A traced run splits it
// at mid into an untraced half (the overhead baseline) and a traced half
// (the per-layer numbers); an untraced run has mid == start.
type timeline struct{ start, mid, end time.Time }

func newTimeline(e *env, start time.Time) timeline {
	tl := timeline{start: start, mid: start, end: start.Add(e.window)}
	if e.traced {
		tl.mid = start.Add(e.window / 2)
	}
	return tl
}

func within(t, from, to time.Time) bool { return !t.Before(from) && t.Before(to) }

// overhead is the tracing overhead: the traced half's throughput loss
// relative to the untraced half of equal length.
func (tl timeline) overhead(untraced, traced int) float64 {
	return 1 - ratio(float64(traced), float64(untraced))
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// netCounters is a reading of the network's own instruments.
type netCounters struct {
	vc      identity.VerifyCacheStats
	served  int64
	ordered int64
	cut     int64
	valid   int64
	invalid int64
	height  uint64
	rt      runtimeReading
	cpu     usage
}

func (f *fleet) counters() netCounters {
	c := netCounters{
		vc:     f.net.MSP().VerifyCache().Stats(),
		height: f.peer0.Height(),
		rt:     readRuntime(),
		cpu:    readUsage(),
	}
	for _, p := range f.net.Peers() {
		c.served += p.Metrics().Counter(hpmetrics.EndorsementsServed).Value()
	}
	om := f.net.Orderer().Metrics()
	c.ordered = om.Counter(hpmetrics.EnvelopesOrdered).Value()
	c.cut = om.Counter(hpmetrics.BatchesCut).Value()
	pm := f.peer0.Metrics()
	c.valid = pm.Counter(hpmetrics.TxValidated).Value()
	c.invalid = pm.Counter(hpmetrics.TxInvalidated).Value()
	return c
}

// reportCounters sets the per-layer metrics derived from the network's
// instruments between two readings; ops is the workload's completed
// primary operations in between.
func (f *fleet) reportCounters(r *report, a, b netCounters, ops int) {
	txs := float64((b.valid + b.invalid) - (a.valid + a.invalid))
	hits, misses := float64(b.vc.Hits-a.vc.Hits), float64(b.vc.Misses-a.vc.Misses)
	r.set("identity.verify_cache_hit_frac", ratio(hits, hits+misses), int(hits+misses))
	r.set("identity.sig_verifies_per_tx", ratio(misses, txs), int(txs))
	r.set("orderer.tx_per_block", ratio(float64(b.ordered-a.ordered), float64(b.cut-a.cut)), int(b.cut-a.cut))
	r.set("committer.invalid_frac", ratio(float64(b.invalid-a.invalid), txs), int(txs))
	placed := 0
	for _, blk := range f.peer0.Ledger().BlocksFrom(a.height) {
		if blk.Header.Number >= b.height {
			break
		}
		for i := range blk.Envelopes {
			placed += len(blk.Envelopes[i].Endorsements)
		}
	}
	r.set("endorser.used_frac", ratio(float64(placed), float64(b.served-a.served)), int(b.served-a.served))
	reportRuntime(r, a.rt, b.rt, ops)
}

// probe takes the readings that bound the measured window and, in a
// traced run, switches the benchmark's own spans and the CPU profile on
// for the traced half. done closes once the window has ended.
type probe struct {
	start, mid, end netCounters
	profErr         error
	done            chan struct{}
}

func startProbe(e *env, tl timeline, f *fleet, ts *timedStore) *probe {
	p := &probe{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sleepUntil(tl.start)
		p.start = f.counters()
		var stopProfile func()
		if e.traced {
			sleepUntil(tl.mid)
			p.mid = f.counters()
			ts.on.Store(true)
			stopProfile, p.profErr = startProfile(e.profile)
		}
		sleepUntil(tl.end)
		if e.traced {
			ts.on.Store(false)
			if stopProfile != nil {
				stopProfile()
			}
		}
		p.end = f.counters()
	}()
	return p
}

// tracedSetUp builds the fleet, wrapping its off-chain store with the
// benchmark's timer when the run is traced.
func tracedSetUp(e *env, s *samples) (*fleet, *timedStore, float64, error) {
	var ts *timedStore
	var wrap func(offchain.Store) offchain.Store
	if e.traced {
		wrap = func(st offchain.Store) offchain.Store {
			ts = newTimedStore(st, s)
			return ts
		}
	}
	f, setupS, err := setUp(e, wrap)
	return f, ts, setupS, err
}

// reportCommon sets the metrics every workload reports the same way;
// maxRSS is the peak resident memory in bytes.
func reportCommon(r *report, setupS float64, cpu time.Duration, ops int, maxRSS int64) {
	r.set("setup_s", setupS, setupRepeats)
	r.set("cpu_ms_per_op", ratio(ms(cpu), float64(ops)), ops)
	r.set("rss_peak_mb", float64(maxRSS)/(1<<20), 1)
}

// runIngest is the edge fleet ingesting provenance: a closed loop keeps 16
// StoreData requests outstanding over 64 device identities.
func runIngest(e *env, r *report) error {
	s := newSamples()
	f, ts, setupS, err := tracedSetUp(e, s)
	if err != nil {
		return err
	}
	defer f.close()
	g := newGen(e.seed)
	tl := newTimeline(e, time.Now().Add(ingestWarmup))
	win := startProbe(e, tl, f, ts)

	var (
		mu     sync.Mutex
		lat    = bench.NewHistogram()
		ops    int
		perSec = newSlicer(tl.start, tl.end)
		opsA   int // traced run: completions in the untraced half
		opsB   int // traced run: completions in the traced half
		maxRSS int64
	)
	reached, stop := make(chan struct{}), make(chan struct{})
	go func() {
		<-win.done
		select {
		case <-reached:
		case <-time.After(rssGrace):
		}
		close(stop)
	}()
	f.closedLoop(g, ingestDepth, 0, stop, func(w writeResult) {
		traced := e.traced && w.err == nil && !w.call.Before(tl.mid) && w.end.Before(tl.end)
		if traced {
			traceWrite(s, f.net.Tracer(), ts, f.peer0.Name(), w)
		}
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		if r.attempted == rssWrites {
			maxRSS = readUsage().maxRSS
			close(reached)
		}
		if w.err != nil {
			r.opFailed("write %s: %v", w.q.key, w.err)
			return
		}
		if within(w.end, tl.start, tl.end) {
			ops++
			perSec.add(w.end)
		}
		if within(w.end, tl.start, tl.mid) {
			opsA++
		} else if within(w.end, tl.mid, tl.end) {
			opsB++
		}
		if within(w.start, tl.start, tl.end) {
			lat.Record(w.end.Sub(w.start))
		}
	})
	if win.profErr != nil {
		return win.profErr
	}

	r.set("ops_per_s", perSec.rate(), ops)
	sum := lat.Summarize()
	r.set("op_p50_ms", ms(sum.P50), sum.Count)
	r.set("client.op_p99_ms", ms(sum.P99), sum.Count)
	if maxRSS == 0 {
		r.note("only %d writes in %v past the window; rss_peak_mb read at the end", r.attempted, rssGrace)
		maxRSS = readUsage().maxRSS
	}
	reportCommon(r, setupS, win.end.cpu.cpu-win.start.cpu.cpu, ops, maxRSS)
	if e.traced {
		reportWrites(r, s)
		r.set("gen.inflight_max", float64(g.maxIn), 1)
		r.set("trace.overhead_frac", tl.overhead(opsA, opsB), opsA+opsB)
		f.reportCounters(r, win.mid, win.end, opsB)
		us, n, err := deserializeMicros(f.net.MSP(), f.ser)
		if err != nil {
			return err
		}
		r.set("identity.deserialize_us", us, n)
	}
	f.checkNetwork(r, g)
	f.verify(e, r, g, ts, s, true)
	return nil
}

// verify runs the read-back query pass. When timeQueries is set and the run
// is traced, its query and off-chain get latencies are the run's query-layer
// samples (ingest and catchup have no reads of their own in the window).
func (f *fleet) verify(e *env, r *report, g *gen, ts *timedStore, s *samples, timeQueries bool) {
	record := e.traced && timeQueries
	var qs *samples
	if record {
		qs = s
		ts.on.Store(true)
	}
	f.verifyReads(r, g, qs)
	if record {
		ts.on.Store(false)
		reportReads(r, s)
	}
	if e.traced {
		reportStatedb(r, f.peer0.Metrics())
	}
}
