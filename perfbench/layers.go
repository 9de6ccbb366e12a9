package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/bench"
	"github.com/hyperprov/hyperprov/internal/identity"
	hpmetrics "github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// samples collects named per-layer observations from many goroutines:
// values whose mean is reported, and latency distributions whose
// percentiles are.
type samples struct {
	mu    sync.Mutex
	vals  map[string][]float64
	hists map[string]*bench.Histogram
}

func newSamples() *samples {
	return &samples{vals: make(map[string][]float64), hists: make(map[string]*bench.Histogram)}
}

// record adds one latency to name's distribution.
func (s *samples) record(name string, d time.Duration) { s.hist(name).Record(d) }

// hist returns name's latency distribution.
func (s *samples) hist(name string) *bench.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = bench.NewHistogram()
		s.hists[name] = h
	}
	return h
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.vals[name] = append(s.vals[name], v)
	s.mu.Unlock()
}

// merge adds o's observations to s.
func (s *samples) merge(o *samples) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, xs := range o.vals {
		s.mu.Lock()
		s.vals[name] = append(s.vals[name], xs...)
		s.mu.Unlock()
	}
	for name, h := range o.hists {
		s.hist(name).Merge(h)
	}
}

// get returns a copy of name's observations.
func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.vals[name]...)
}

// reportMeans sets each named metric to the mean of its observations.
func (s *samples) reportMeans(r *report, names ...string) {
	for _, n := range names {
		xs := s.get(n)
		r.set(n, mean(xs), len(xs))
	}
}

// span is one benchmark-timed interval.
type span struct{ start, end time.Time }

// timedStore wraps the off-chain store handed to core.WithStore and times
// each Put and Get while recording is on. Puts are keyed by the payload's
// first byte so a write's put can be matched to its transaction.
type timedStore struct {
	offchain.Store
	on   atomic.Bool
	mu   sync.Mutex
	puts map[*byte]span
	s    *samples
}

func newTimedStore(st offchain.Store, s *samples) *timedStore {
	return &timedStore{Store: st, puts: make(map[*byte]span), s: s}
}

func (t *timedStore) Put(data []byte) (string, error) {
	start := time.Now()
	ref, err := t.Store.Put(data)
	if t.on.Load() && len(data) > 0 {
		t.mu.Lock()
		t.puts[&data[0]] = span{start, time.Now()}
		t.mu.Unlock()
	}
	return ref, err
}

func (t *timedStore) Get(ref string) ([]byte, error) {
	start := time.Now()
	data, err := t.Store.Get(ref)
	if t.on.Load() {
		t.s.add("offchain.get_ms", ms(time.Since(start)))
	}
	return data, err
}

// takePut returns and forgets the put span of a payload.
func (t *timedStore) takePut(data []byte) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.puts[&data[0]]
	delete(t.puts, &data[0])
	return sp, ok
}

// stageSpans indexes one transaction's recorded spans by stage, keeping
// only the ones recorded by the gateway, the orderer and peer.
func stageSpans(t trace.Trace, peer string) map[string]trace.Span {
	out := make(map[string]trace.Span, len(t.Spans))
	for _, s := range t.Spans {
		if s.Peer == "gateway" || s.Peer == "orderer" || s.Peer == peer {
			out[s.Stage] = s
		}
	}
	return out
}

// traceWrite splits one acknowledged write into its layers: the off-chain
// put (benchmark span), the program's own propose/endorse/order/commit
// spans (trace.Recorder.Lookup), and the waits between consecutive stages.
// It records the share of the client-observed latency that no span or wait
// covers as trace.unattributed_frac.
func traceWrite(s *samples, tr *trace.Recorder, ts *timedStore, peer string, w writeResult) {
	s.record("client.write", w.end.Sub(w.start))
	s.record("gen.lag", w.call.Sub(w.start))
	total := w.end.Sub(w.call)
	if total <= 0 {
		return
	}
	var attributed time.Duration
	seg := func(name string, from, to time.Time) {
		if from.IsZero() || to.IsZero() {
			return
		}
		d := max(to.Sub(from), 0)
		attributed += d
		s.add(name, ms(d))
	}
	if put, ok := ts.takePut(w.data); ok {
		seg("offchain.put_ms", put.start, put.end)
	}
	t, ok := tr.Lookup(w.txID)
	if ok {
		st := stageSpans(t, peer)
		start := func(stage string) time.Time {
			if sp, ok := st[stage]; ok {
				return sp.Start
			}
			return time.Time{}
		}
		end := func(stage string) time.Time {
			if sp, ok := st[stage]; ok {
				return sp.End()
			}
			return time.Time{}
		}
		seg("gateway.propose_ms", start(trace.StagePropose), end(trace.StagePropose))
		seg("orderer.wait_ms", end(trace.StagePropose), end(trace.StageOrder))
		seg("committer.deliver_wait_ms", end(trace.StageOrder), start(trace.StageCommitPreval))
		seg("committer.preval_ms", start(trace.StageCommitPreval), end(trace.StageCommitPreval))
		seg("committer.mvcc_wait_ms", end(trace.StageCommitPreval), start(trace.StageCommitMVCC))
		seg("committer.mvcc_ms", start(trace.StageCommitMVCC), end(trace.StageCommitMVCC))
		seg("committer.persist_wait_ms", end(trace.StageCommitMVCC), start(trace.StageCommitPersist))
		seg("committer.persist_ms", start(trace.StageCommitPersist), end(trace.StageCommitPersist))
		seg("committer.notify_ms", end(trace.StageCommitPersist), w.end)
		if sp, ok := st[trace.StageEndorse]; ok {
			s.add("endorser.service_ms", ms(sp.Duration))
		}
	}
	s.add("trace.unattributed_frac", max(float64(total-attributed), 0)/float64(total))
}

// reportWrites sets the per-layer metrics traceWrite collected: the mean
// of each span and wait, the client's median write latency and the
// generator's p99 lateness (due time to StoreData call).
func reportWrites(r *report, s *samples) {
	s.reportMeans(r, "offchain.put_ms", "gateway.propose_ms", "endorser.service_ms", "orderer.wait_ms",
		"committer.deliver_wait_ms", "committer.preval_ms", "committer.mvcc_wait_ms",
		"committer.mvcc_ms", "committer.persist_wait_ms", "committer.persist_ms",
		"committer.notify_ms", "trace.unattributed_frac")
	lat, lag := s.hist("client.write").Summarize(), s.hist("gen.lag").Summarize()
	r.set("client.write_p50_ms", ms(lat.P50), lat.Count)
	r.set("gen.lag_p99_ms", ms(lag.P99), lag.Count)
}

// addRead records one query's latency under its per-layer name, and the
// size of lineage answers.
func (s *samples) addRead(name string, d time.Duration, records int) {
	s.add(name, ms(d))
	if name == "query.lineage_ms" {
		s.add("query.lineage_records", float64(records))
	}
}

// reportReads sets the query-layer means collected by addRead.
func reportReads(r *report, s *samples) {
	s.reportMeans(r, "offchain.get_ms", "query.get_ms", "query.history_ms", "query.lineage_ms",
		"query.descendants_ms", "query.by_checksum_ms", "query.get_data_ms", "query.lineage_records")
}

// reportStatedb sets peer0's mean state-database get and range-scan times
// over the whole run (set-up, window and output checks).
func reportStatedb(r *report, reg *hpmetrics.Registry) {
	for name, hist := range map[string]string{"statedb.get_us": hpmetrics.StateGet, "statedb.scan_us": hpmetrics.StateScan} {
		sum := reg.Histogram(hist).Summary()
		r.set(name, ratio(float64(sum.Sum)/float64(time.Microsecond), float64(sum.Count)), int(sum.Count))
	}
}

// commitSpans records the commit-stage spans and the waits between them
// for catch-up transactions recorded on a durable peer.
func commitSpans(s *samples, t trace.Trace, peer string) {
	st := stageSpans(t, peer)
	pv, ok1 := st[trace.StageCommitPreval]
	mv, ok2 := st[trace.StageCommitMVCC]
	ps, ok3 := st[trace.StageCommitPersist]
	if !ok1 || !ok2 || !ok3 {
		return
	}
	s.add("committer.preval_ms", ms(pv.Duration))
	s.add("committer.mvcc_wait_ms", ms(max(mv.Start.Sub(pv.End()), 0)))
	s.add("committer.mvcc_ms", ms(mv.Duration))
	s.add("committer.persist_wait_ms", ms(max(ps.Start.Sub(mv.End()), 0)))
	s.add("committer.persist_ms", ms(ps.Duration))
}

// runtimeReading is a snapshot of the Go runtime's CPU and allocation
// accounting.
type runtimeReading struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeReading {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		v := samples[i].Value
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeReading{val(0), val(1), val(2)}
}

// reportRuntime sets the Go runtime per-layer metrics for a phase that
// completed ops operations.
func reportRuntime(r *report, from, to runtimeReading, ops int) {
	r.set("go.alloc_kb_per_op", ratio(to.allocBytes-from.allocBytes, float64(ops))/1024, ops)
	r.set("go.gc_cpu_frac", ratio(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU), 1)
}

// startProfile begins the traced phase's CPU profile; the returned stop
// function ends it.
func startProfile(path string) (func(), error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}, nil
}

// deserializeMicros times MSP.Deserialize over the workload's serialized
// identities, five passes, and returns the mean in microseconds.
func deserializeMicros(msp *identity.MSP, ser [][]byte) (float64, int, error) {
	const passes = 5
	start := time.Now()
	for i := 0; i < passes; i++ {
		for _, raw := range ser {
			if _, err := msp.Deserialize(raw); err != nil {
				return 0, 0, fmt.Errorf("deserialize: %w", err)
			}
		}
	}
	n := passes * len(ser)
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), n, nil
}
