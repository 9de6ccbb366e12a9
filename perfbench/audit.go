package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/bench"
	"github.com/hyperprov/hyperprov/internal/core"
)

// Audit workload shape.
const (
	auditPreload = 1200 // committed writes before the window
	auditReaders = 2    // closed-loop readers, one per core of the reference host
	bgRate       = 10   // background StoreData per second (open loop)
	zipfS        = 1.1  // key popularity skew: P(rank k) ∝ (zipfV+k)^-zipfS
	zipfV        = 64   // flattens the head: the hottest key gets under 1% of reads
)

// readItem is the expected answer set for one readable key.
type readItem struct {
	versions int
	checksum string
	parents  []string
	lineage  []string // the key and all its ancestors, sorted
	desc     []string // all its descendants, sorted
}

// readModel is the frozen expectation every audit read is checked
// against. Keys the background writes will change — updated items and
// every ancestor of a new item's parents — are left out, so no answer
// depends on how far the background stream has got.
type readModel struct {
	seed  uint64
	keys  []string // readable keys in popularity order
	items map[string]*readItem
}

func newReadModel(g *gen, bg []request, seed uint64) *readModel {
	children := make(map[string][]string)
	var committed []string
	for _, k := range g.keys {
		it := g.items[k]
		if it.versions == 0 {
			continue
		}
		committed = append(committed, k)
		for _, p := range it.parents {
			children[p] = append(children[p], k)
		}
	}
	walk := func(k string, next func(string) []string) []string {
		seen := map[string]bool{k: true}
		frontier := []string{k}
		for len(frontier) > 0 {
			var nf []string
			for _, x := range frontier {
				for _, y := range next(x) {
					if !seen[y] {
						seen[y] = true
						nf = append(nf, y)
					}
				}
			}
			frontier = nf
		}
		out := make([]string, 0, len(seen))
		for y := range seen {
			out = append(out, y)
		}
		slices.Sort(out)
		return out
	}
	parentsOf := func(k string) []string { return g.items[k].parents }
	childrenOf := func(k string) []string { return children[k] }

	excluded := make(map[string]bool)
	for _, q := range bg {
		if q.version > 0 {
			excluded[q.key] = true
			continue
		}
		for _, p := range q.parents {
			for _, a := range walk(p, parentsOf) {
				excluded[a] = true
			}
		}
	}
	m := &readModel{seed: seed, items: make(map[string]*readItem)}
	for _, k := range committed {
		if excluded[k] {
			continue
		}
		it := g.items[k]
		desc := walk(k, childrenOf)
		desc = slices.DeleteFunc(desc, func(x string) bool { return x == k })
		m.items[k] = &readItem{
			versions: it.versions,
			checksum: it.checksum,
			parents:  it.parents,
			lineage:  walk(k, parentsOf),
			desc:     desc,
		}
		m.keys = append(m.keys, k)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(m.keys), func(i, j int) { m.keys[i], m.keys[j] = m.keys[j], m.keys[i] })
	return m
}

func recordKeys(recs []core.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	slices.Sort(out)
	return out
}

func (m *readModel) checkRecord(key string, rec *core.Record) error {
	it := m.items[key]
	if rec.Key != key || rec.Checksum != it.checksum || !slices.Equal(rec.Parents, it.parents) {
		return fmt.Errorf("record of %s: got key %s checksum %s parents %v", key, rec.Key, rec.Checksum, rec.Parents)
	}
	return nil
}

// readOp is one audit query: call issues it and returns the check of its
// answer (run outside the timed call) and the number of records returned.
type readOp struct {
	name string // per-layer metric of its latency
	call func(c *core.Client, m *readModel, key string) (check func() error, records int, err error)
}

var readOps = []readOp{
	{"query.get_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		rec, err := c.Get(key)
		return func() error { return m.checkRecord(key, rec) }, 1, err
	}},
	{"query.history_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		hist, err := c.GetKeyHistory(key)
		return func() error {
			it := m.items[key]
			if len(hist) != it.versions || hist[len(hist)-1].Record == nil || hist[len(hist)-1].Record.Checksum != it.checksum {
				return fmt.Errorf("history of %s: %d versions, want %d ending in %s", key, len(hist), it.versions, it.checksum)
			}
			return nil
		}, len(hist), err
	}},
	{"query.lineage_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		recs, err := c.GetLineage(key)
		return func() error {
			if got := recordKeys(recs); !slices.Equal(got, m.items[key].lineage) {
				return fmt.Errorf("lineage of %s: %v, want %v", key, got, m.items[key].lineage)
			}
			return nil
		}, len(recs), err
	}},
	{"query.descendants_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		recs, err := c.GetDescendants(key)
		return func() error {
			if got := recordKeys(recs); !slices.Equal(got, m.items[key].desc) {
				return fmt.Errorf("descendants of %s: %v, want %v", key, got, m.items[key].desc)
			}
			return nil
		}, len(recs), err
	}},
	{"query.by_checksum_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		rec, err := c.GetByChecksum(m.items[key].checksum)
		return func() error { return m.checkRecord(key, rec) }, 1, err
	}},
	{"query.get_data_ms", func(c *core.Client, m *readModel, key string) (func() error, int, error) {
		data, rec, err := c.GetData(key)
		return func() error {
			it := m.items[key]
			if !bytes.Equal(data, payload(m.seed, key, it.versions-1)) {
				return fmt.Errorf("data of %s differs from version %d", key, it.versions-1)
			}
			return m.checkRecord(key, rec)
		}, 1, err
	}},
}

// runAudit is an auditor querying lineage: two closed-loop readers issue
// zipf-keyed queries over a preloaded ledger while an open-loop stream
// writes 10 StoreData per second, timed from each write's due time.
func runAudit(e *env, r *report) error {
	s := newSamples()
	f, ts, setupS, err := tracedSetUp(e, s)
	if err != nil {
		return err
	}
	defer f.close()
	g := newGen(e.seed)
	t0 := time.Now()
	if err := f.preload(g, auditPreload, nil); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if err := f.settle(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	setupS += time.Since(t0).Seconds()

	bg := make([]request, int(e.window.Seconds()*bgRate))
	for i := range bg {
		bg[i] = g.plan()
	}
	m := newReadModel(g, bg, e.seed)
	if len(m.keys) < 2 {
		return fmt.Errorf("only %d readable keys", len(m.keys))
	}
	g.mu.Lock()
	g.maxIn = 0
	g.mu.Unlock()
	tl := newTimeline(e, time.Now().Add(100*time.Millisecond))
	win := startProbe(e, tl, f, ts)

	// Each reader keeps its own tally, merged after the window, so the two
	// readers share no lock on their hot path.
	type tally struct {
		lat            *bench.Histogram
		perSec         *slicer
		readsA, readsB int
		spans          *samples // traced half: query latencies
	}
	tallies := make([]tally, auditReaders)
	var mu sync.Mutex // guards r for failures and the background writes
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = tally{lat: bench.NewHistogram(), perSec: newSlicer(tl.start, tl.end), spans: newSamples()}
		wg.Add(1)
		go func(t *tally, c *core.Client, stream uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(e.seed, stream))
			zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(m.keys)-1))
			sleepUntil(tl.start)
			for {
				key := m.keys[zipf.Uint64()]
				op := readOps[rng.IntN(len(readOps))]
				start := time.Now()
				if !start.Before(tl.end) {
					return
				}
				check, n, err := op.call(c, m, key)
				end := time.Now()
				if err == nil {
					err = check()
				}
				if err != nil {
					mu.Lock()
					r.opFailed("%s %s: %v", op.name, key, err)
					mu.Unlock()
				}
				if e.traced && within(start, tl.mid, tl.end) {
					t.spans.addRead(op.name, end.Sub(start), n)
				}
				t.lat.Record(end.Sub(start))
				t.perSec.add(end)
				if within(end, tl.start, tl.mid) {
					t.readsA++
				} else if within(end, tl.mid, tl.end) {
					t.readsB++
				}
			}
		}(&tallies[i], f.clients[i], uint64(i)+1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var writers sync.WaitGroup
		for k, q := range bg {
			due := tl.start.Add(time.Duration(k) * time.Second / bgRate)
			sleepUntil(due)
			g.acquire(q)
			writers.Add(1)
			go func() {
				defer writers.Done()
				w := f.write(g, q, due)
				traced := e.traced && w.err == nil && !w.call.Before(tl.mid) && w.end.Before(tl.end)
				if traced {
					traceWrite(s, f.net.Tracer(), ts, f.peer0.Name(), w)
				}
				mu.Lock()
				defer mu.Unlock()
				r.attempted++
				if w.err != nil {
					r.opFailed("write %s: %v", q.key, w.err)
				}
			}()
		}
		writers.Wait()
	}()
	wg.Wait()
	<-win.done
	if win.profErr != nil {
		return win.profErr
	}
	readLat := bench.NewHistogram()
	var readsA, readsB int
	perSec := newSlicer(tl.start, tl.end)
	for _, t := range tallies {
		readLat.Merge(t.lat)
		readsA += t.readsA
		readsB += t.readsB
		for j, c := range t.perSec.counts {
			perSec.counts[j] += c
		}
		s.merge(t.spans)
	}
	lat := readLat.Summarize()
	reads := lat.Count
	r.attempted += int64(reads)

	r.set("ops_per_s", perSec.rate(), reads)
	r.set("op_p50_ms", ms(lat.P50), reads)
	r.set("client.op_p99_ms", ms(lat.P99), reads)
	reportCommon(r, setupS, win.end.cpu.cpu-win.start.cpu.cpu, reads, readUsage().maxRSS)
	if e.traced {
		reportWrites(r, s)
		reportReads(r, s)
		r.set("gen.inflight_max", float64(g.maxIn), 1)
		r.set("trace.overhead_frac", tl.overhead(readsA, readsB), readsA+readsB)
		f.reportCounters(r, win.mid, win.end, readsB)
		us, n, err := deserializeMicros(f.net.MSP(), f.ser)
		if err != nil {
			return err
		}
		r.set("identity.deserialize_us", us, n)
	}
	f.checkNetwork(r, g)
	f.verify(e, r, g, ts, s, false)
	return nil
}
