package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// Workload shape shared by every workload.
const (
	devices     = 64   // enrolled edge identities; requests rotate over them
	payloadSize = 1024 // bytes per StoreData payload
	ingestDepth = 16   // outstanding StoreData requests (the paper's 16 async requests)
	updateFrac  = 0.25 // share of requests that write a new version of a committed item
	maxParents  = 2    // a new item cites 0..maxParents committed items
	// refGap is how many requests back an item must have last been touched
	// before a new request may cite or update it. It keeps the generator
	// from waiting on its own recent writes; acquire still enforces the
	// no-overlap rule if a straggler is slower than that.
	refGap       = 64
	setupRepeats = 9
	drainTimeout = 60 * time.Second
)

// fleet is one freshly built network with its 64 device clients and
// off-chain store. Nothing in it is shared between runs or set-ups.
type fleet struct {
	net     *fabric.Network
	peer0   *peer.Peer
	clients []*core.Client
	// ser holds each device's serialized identity (for timing MSP.Deserialize).
	ser [][]byte
	dir string
}

// newFleet builds the paper's desktop topology (4 peers, one org, solo
// orderer, Fabric batch defaults) with every modeled device cost off, its
// off-chain store, and the enrolled device identities. The chaincode is
// not deployed yet (see setUp). wrap, when non-nil, wraps the off-chain
// store (the traced run's timer).
func newFleet(work string, seed uint64, wrap func(offchain.Store) offchain.Store) (*fleet, error) {
	cfg := fabric.DesktopConfig()
	cfg.Clock = device.NopClock{}
	cfg.Seed = int64(seed)
	net, err := fabric.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{net: net, peer0: net.Peers()[0]}
	if err := f.init(work, wrap); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) init(work string, wrap func(offchain.Store) offchain.Store) error {
	dir, err := os.MkdirTemp(work, "offchain-")
	if err != nil {
		return err
	}
	f.dir = dir
	ds, err := offchain.NewDirStore(dir)
	if err != nil {
		return err
	}
	var store offchain.Store = ds
	if wrap != nil {
		store = wrap(ds)
	}
	for i := 0; i < devices; i++ {
		gw, err := f.net.NewGateway(fmt.Sprintf("device%02d", i))
		if err != nil {
			return err
		}
		c, err := core.New(gw, core.WithStore(store))
		if err != nil {
			return err
		}
		f.clients = append(f.clients, c)
		f.ser = append(f.ser, gw.Identity().Serialize())
	}
	return nil
}

func (f *fleet) close() {
	f.net.Stop()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// setUp builds setupRepeats fresh fleets, keeps the last, deploys the
// HyperProv chaincode on it, and returns the median build time in seconds.
// The deployment is left out of the timing: its instantiation transaction
// sits alone in the orderer's batch until the 2 s batch timeout cuts it, a
// fixed wait that would hide the set-up work the program does.
func setUp(e *env, wrap func(offchain.Store) offchain.Store) (*fleet, float64, error) {
	var f *fleet
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = newFleet(e.work, e.seed, wrap); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if err := f.net.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return f, median(times), nil
}

// settle waits until every peer has committed every ordered block.
func (f *fleet) settle() error {
	head := f.net.Orderer().Height()
	deadline := time.Now().Add(drainTimeout)
	for _, p := range f.net.Peers() {
		for p.Watermark() < head {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s stuck at height %d of %d", p.Name(), p.Watermark(), head)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// checkNetwork runs the ledger-level output checks: every peer holds the
// same state, every ledger's hash chain verifies, and every acknowledged
// write reads back with the checksum the model recorded.
func (f *fleet) checkNetwork(r *report, g *gen) {
	if err := f.settle(); err != nil {
		r.fail("settle: %v", err)
		return
	}
	fp0 := f.peer0.StateFingerprint()
	for _, p := range f.net.Peers()[1:] {
		if fp := p.StateFingerprint(); fp != fp0 {
			r.fail("state fingerprint of %s differs from %s", p.Name(), f.peer0.Name())
		}
	}
	if err := f.clients[0].VerifyLedger(); err != nil {
		r.fail("verify ledger: %v", err)
	}
	for _, key := range g.keys {
		it := g.items[key]
		if it.versions == 0 {
			continue // never acknowledged (failed requests are counted already)
		}
		rec, err := f.clients[0].Get(key)
		if err != nil {
			r.fail("read back %s: %v", key, err)
			continue
		}
		if rec.Checksum != it.checksum {
			r.fail("read back %s: checksum %s, want %s", key, rec.Checksum, it.checksum)
		}
	}
}

// verifyReads sends every acknowledged record through one of the audit
// queries (rotating over them) and checks each answer against the
// generator's model. When s is non-nil the query latencies are recorded as
// the query layer's per-layer samples.
func (f *fleet) verifyReads(r *report, g *gen, s *samples) {
	m := newReadModel(g, nil, g.seed)
	for i, key := range m.keys {
		op := readOps[i%len(readOps)]
		start := time.Now()
		check, n, err := op.call(f.clients[0], m, key)
		d := time.Since(start)
		if err == nil {
			err = check()
		}
		if err != nil {
			r.fail("verify %s %s: %v", op.name, key, err)
			continue
		}
		if s != nil {
			s.addRead(op.name, d, n)
		}
	}
}

// request is one planned StoreData call.
type request struct {
	idx     int
	key     string
	owner   int // device index; updates go through the item's owner
	version int // 0 for a new item
	parents []string
	it      *item
}

// touched lists every record the request reads or writes.
func (q request) touched() []string { return append([]string{q.key}, q.parents...) }

// item is the generator's model of one provenance record.
type item struct {
	owner   int
	parents []string
	planned int // versions planned so far
	lastIdx int // last request index that touched the item
	// Committed view, updated as acknowledgements arrive.
	versions int
	checksum string
}

// gen plans the StoreData request sequence from the seed alone and tracks
// which records have writes in flight. Planning depends only on the seed
// and the request index, never on timing, so a seed always yields the same
// requests. acquire/release enforce that no two in-flight writes touch the
// same record, as key or as parent, so no write can lose an MVCC race.
type gen struct {
	seed     uint64
	rng      *rand.Rand
	next     int
	newCount int
	keys     []string // items in planning order
	items    map[string]*item

	mu       sync.Mutex
	cond     *sync.Cond
	busy     map[string]bool
	inflight int
	maxIn    int
}

func newGen(seed uint64) *gen {
	g := &gen{
		seed:  seed,
		rng:   rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		items: make(map[string]*item),
		busy:  make(map[string]bool),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// plan returns the next request of the sequence. Only one goroutine plans.
func (g *gen) plan() request {
	i := g.next
	g.next++
	if g.rng.Float64() < updateFrac {
		if key, ok := g.pick(i, nil, true); ok {
			it := g.items[key]
			it.planned++
			q := request{idx: i, key: key, owner: it.owner, version: it.planned - 1, parents: it.parents, it: it}
			g.mark(q)
			return q
		}
	}
	q := request{idx: i}
	for n := g.rng.IntN(maxParents + 1); len(q.parents) < n; {
		key, ok := g.pick(i, q.parents, false)
		if !ok {
			break
		}
		q.parents = append(q.parents, key)
	}
	q.key = fmt.Sprintf("item-%07d", g.newCount)
	q.owner = g.newCount % devices
	g.newCount++
	q.it = &item{owner: q.owner, parents: q.parents, planned: 1}
	g.items[q.key] = q.it
	g.keys = append(g.keys, q.key)
	g.mark(q)
	return q
}

// pick draws an existing item last touched at least refGap requests ago
// (and, for an update, whose parents are as old), or reports none found.
func (g *gen) pick(i int, exclude []string, update bool) (string, bool) {
	for try := 0; try < 8 && len(g.keys) > 0; try++ {
		key := g.keys[g.rng.IntN(len(g.keys))]
		if !g.idle(key, i) || contains(exclude, key) {
			continue
		}
		if update {
			ok := true
			for _, p := range g.items[key].parents {
				ok = ok && g.idle(p, i)
			}
			if !ok {
				continue
			}
		}
		return key, true
	}
	return "", false
}

func (g *gen) idle(key string, i int) bool { return g.items[key].lastIdx <= i-refGap }

func (g *gen) mark(q request) {
	for _, k := range q.touched() {
		g.items[k].lastIdx = q.idx
	}
}

// acquire blocks until none of q's records has a write in flight, then
// marks them busy.
func (g *gen) acquire(q request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.anyBusy(q) {
		g.cond.Wait()
	}
	for _, k := range q.touched() {
		g.busy[k] = true
	}
	g.inflight++
	g.maxIn = max(g.maxIn, g.inflight)
}

func (g *gen) anyBusy(q request) bool {
	for _, k := range q.touched() {
		if g.busy[k] {
			return true
		}
	}
	return false
}

// release ends q's write; on success the model records the new version.
func (g *gen) release(q request, ok bool, checksum string) {
	g.mu.Lock()
	if ok {
		q.it.versions = q.version + 1
		q.it.checksum = checksum
	}
	for _, k := range q.touched() {
		delete(g.busy, k)
	}
	g.inflight--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// payload returns the deterministic 1 KiB content of one item version.
// The key/version prefix makes every payload (and so every checksum)
// unique.
func payload(seed uint64, key string, version int) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.NewPCG(seed^h.Sum64(), uint64(version))
	buf := make([]byte, payloadSize)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	copy(buf, fmt.Sprintf("%s/v%d/", key, version))
	return buf
}

// writeResult is one finished StoreData call.
type writeResult struct {
	q     request
	data  []byte
	start time.Time // when the write was due; latency is measured from here
	call  time.Time // when StoreData was called
	end   time.Time
	txID  string
	err   error
}

// write runs one planned StoreData through the request's device client,
// then releases its records. due is when the write was due: its scheduled
// time in an open loop, the moment a slot freed in a closed loop.
func (f *fleet) write(g *gen, q request, due time.Time) writeResult {
	data := payload(g.seed, q.key, q.version)
	call := time.Now()
	rcpt, err := f.clients[q.owner].StoreData(q.key, data, core.PostOptions{Parents: q.parents})
	res := writeResult{q: q, data: data, start: due, call: call, end: time.Now(), err: err}
	if err == nil {
		res.txID = rcpt.TxID
	}
	g.release(q, err == nil, offchain.Checksum(data))
	return res
}

// closedLoop keeps depth planned writes outstanding until stop is closed
// or, when limit > 0, limit writes have been issued; then it waits for
// them. Each finished write is passed to done (called from the writer
// goroutines; done must be safe for concurrent use).
func (f *fleet) closedLoop(g *gen, depth, limit int, stop <-chan struct{}, done func(writeResult)) {
	sem := make(chan struct{}, depth)
	var wg sync.WaitGroup
	for n := 0; limit == 0 || n < limit; n++ {
		select {
		case <-stop:
			wg.Wait()
			return
		case sem <- struct{}{}:
		}
		due := time.Now() // a slot is free: the next write is due now
		q := g.plan()
		g.acquire(q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done(f.write(g, q, due))
			<-sem
		}()
	}
	wg.Wait()
}

// preload drives n planned writes through the closed loop and returns any
// failure. With n a multiple of the batch size every block fills, so no
// write waits for the orderer's batch timeout. each, when non-nil, also
// sees every finished write.
func (f *fleet) preload(g *gen, n int, each func(writeResult)) error {
	var mu sync.Mutex
	var errs []error
	f.closedLoop(g, ingestDepth, n, nil, func(w writeResult) {
		if each != nil {
			each(w)
		}
		if w.err != nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("%s: %w", w.q.key, w.err))
			mu.Unlock()
		}
	})
	return errors.Join(errs...)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
