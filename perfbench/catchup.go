package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/hyperprov/hyperprov/internal/bench"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/recovery"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Catch-up workload shape.
const (
	catchupPreload = 2000 // committed writes the rejoining peer catches up on
	reopens        = 16   // crash-reopen cycles after each catch-up
	edgeName       = "edge0"
)

// edgePeer opens durable peers the way a joining edge process does: its own
// verification-only MSP built from the network's CA certificate (never the
// network's MSP or its verification cache) and a throwaway local signer.
type edgePeer struct {
	caPEM   []byte
	signer  *identity.SigningIdentity
	channel string
	dir     string
	tracer  *trace.Recorder
	msp     *identity.MSP // the MSP of the last open
}

func (ep *edgePeer) open() (*peer.Host, *peer.Peer, error) {
	ca, err := identity.NewVerifyingCA(ep.caPEM)
	if err != nil {
		return nil, nil, err
	}
	ep.msp = identity.NewMSP(ca)
	host, err := peer.Open(peer.Config{
		Name:     edgeName,
		Signer:   ep.signer,
		MSP:      ep.msp,
		Channels: []string{ep.channel},
		Dir:      ep.dir,
		Tracer:   ep.tracer,
	})
	if err != nil {
		return nil, nil, err
	}
	return host, host.Channel(ep.channel), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// runCatchup is a durable edge peer rejoining after an outage. Set-up
// drives the ingest mix to a fixed ledger; each timed round then opens a
// fresh durable peer, catches it up from genesis through the orderer's
// block stream, and crashes and reopens it reopens times. Its height and
// state fingerprint must equal peer0's after catch-up and every reopen.
func runCatchup(e *env, r *report) error {
	s := newSamples()
	f, ts, setupS, err := tracedSetUp(e, s)
	if err != nil {
		return err
	}
	defer f.close()
	t0 := time.Now()
	g := newGen(e.seed)
	// A traced run traces the preload: its writes are this workload's only
	// pass through the write-path layers (put, propose, endorse, order).
	pre := newSamples()
	var each func(writeResult)
	if e.traced {
		ts.on.Store(true)
		each = func(w writeResult) {
			if w.err == nil {
				traceWrite(pre, f.net.Tracer(), ts, f.peer0.Name(), w)
			}
		}
	}
	err = f.preload(g, catchupPreload, each)
	if e.traced {
		ts.on.Store(false)
	}
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if err := f.settle(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	edgeCA, err := identity.NewCA("EdgeOrg")
	if err != nil {
		return err
	}
	signer, err := edgeCA.Enroll(edgeName, identity.RolePeer)
	if err != nil {
		return err
	}
	setupS += time.Since(t0).Seconds()

	head := f.net.Orderer().Height()
	want := f.peer0.StateFingerprint()
	// txsBelow[h] is the number of txs in the blocks under height h.
	txsBelow := []int{0}
	for _, b := range f.peer0.Ledger().BlocksFrom(0) {
		txsBelow = append(txsBelow, txsBelow[len(txsBelow)-1]+len(b.Envelopes))
	}
	txs := txsBelow[head]
	check := func(p *peer.Peer, when string) {
		if h := p.Height(); h != head {
			r.fail("%s: height %d, want %d", when, h, head)
		} else if fp := p.StateFingerprint(); fp != want {
			r.fail("%s: state fingerprint differs from %s", when, f.peer0.Name())
		}
	}

	tl := newTimeline(e, time.Now())
	var (
		roundRates          []float64
		catchCPU            time.Duration
		caught              int
		untracedTxs         int // traced run: txs and time of the untraced rounds
		untracedTime        time.Duration
		tracedTime          time.Duration
		recoverLat          = bench.NewHistogram()
		replayed            []float64
		blockBytes, ckBytes int64
		hits, misses        uint64
		tracedTxs           int
		tracedRounds        int
		rtCatchup           runtimeReading // runtime deltas summed over traced catch-ups
		stopProfile         func()
	)
	for round := 0; ; round++ {
		now := time.Now()
		tracedRound := e.traced && !now.Before(tl.mid)
		if !now.Before(tl.end) && round > 0 && (!e.traced || tracedTxs > 0) {
			break
		}
		if tracedRound && stopProfile == nil {
			if stopProfile, err = startProfile(e.profile); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(e.work, "edge-")
		if err != nil {
			return err
		}
		ep := &edgePeer{caPEM: f.net.CA().CertPEM(), signer: signer, channel: f.net.ChannelID(), dir: dir}
		if tracedRound {
			ep.tracer = trace.NewRecorder()
		}
		// collect reads the traces of the txs committed since the last
		// call. The recorder keeps only the last 256, so it is called as
		// the watermark advances; copying only the newest keeps the
		// benchmark's own work during the timed catch-up about one trace
		// copy per tx.
		seen := make(map[string]bool)
		collected := uint64(0)
		collect := func(wm uint64) {
			const slack = 32 // txs that completed their trace late
			wm = min(wm, head)
			n := txsBelow[wm] - txsBelow[collected] + slack
			collected = wm
			for _, t := range ep.tracer.Recent(n) {
				if !seen[t.ID] {
					seen[t.ID] = true
					commitSpans(s, t, edgeName)
				}
			}
		}

		u0, rt0, start := readUsage(), readRuntime(), time.Now()
		host, p, err := ep.open()
		if err != nil {
			return fmt.Errorf("open fresh peer: %w", err)
		}
		if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), f.net.Policy()); err != nil {
			host.Crash()
			return err
		}
		p.Start(f.net.Orderer().Subscribe())
		deadline := start.Add(drainTimeout)
		for wm := p.Watermark(); wm < head && time.Now().Before(deadline); wm = p.Watermark() {
			if tracedRound && wm > collected {
				collect(wm)
			}
			time.Sleep(time.Millisecond)
		}
		d := time.Since(start)
		roundRates = append(roundRates, float64(txs)/d.Seconds())
		catchCPU += readUsage().cpu - u0.cpu
		caught += txs
		if !tracedRound {
			untracedTxs += txs
			untracedTime += d
		} else {
			tracedTime += d
			collect(p.Watermark())
			rt1 := readRuntime()
			rtCatchup.gcCPU += rt1.gcCPU - rt0.gcCPU
			rtCatchup.totalCPU += rt1.totalCPU - rt0.totalCPU
			rtCatchup.allocBytes += rt1.allocBytes - rt0.allocBytes
			tracedTxs += txs
			st := ep.msp.VerifyCache().Stats()
			hits += st.Hits
			misses += st.Misses
		}
		check(p, fmt.Sprintf("round %d catch-up", round))

		for c := 0; c < reopens; c++ {
			host.Crash()
			if c == 0 && tracedRound {
				b, err1 := dirBytes(recovery.BlockFilePathFor(dir, ep.channel))
				k, err2 := dirBytes(recovery.CheckpointDirFor(dir, ep.channel))
				if err1 != nil || err2 != nil {
					return fmt.Errorf("ledger size: %v %v", err1, err2)
				}
				blockBytes += b
				ckBytes += k
			}
			start := time.Now()
			host, p, err = ep.open()
			if err != nil {
				return fmt.Errorf("reopen after crash: %w", err)
			}
			recoverLat.Record(time.Since(start))
			if tracedRound {
				replayed = append(replayed, float64(p.Recovery().ReplayedBlocks))
			}
			check(p, fmt.Sprintf("round %d reopen %d", round, c))
		}
		host.Crash()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		r.attempted += 1 + reopens
		if tracedRound {
			tracedRounds++
		}
	}
	if stopProfile != nil {
		stopProfile()
	}

	r.set("ops_per_s", median(roundRates), len(roundRates))
	rec := recoverLat.Summarize()
	r.set("op_p50_ms", ms(rec.P50), rec.Count)
	r.set("client.op_p99_ms", ms(rec.P99), rec.Count)
	reportCommon(r, setupS, catchCPU, caught, readUsage().maxRSS)
	if e.traced {
		rounds := float64(tracedRounds)
		tracedRate := ratio(float64(tracedTxs), tracedTime.Seconds())
		untracedRate := ratio(float64(untracedTxs), untracedTime.Seconds())
		r.set("trace.overhead_frac", 1-ratio(tracedRate, untracedRate), untracedTxs+tracedTxs)
		// Write-path layers from the traced preload; the commit stages
		// from the durable peer's catch-up replace the preload's.
		reportWrites(r, pre)
		r.set("gen.inflight_max", float64(g.maxIn), 1)
		s.reportMeans(r, "committer.preval_ms", "committer.mvcc_wait_ms", "committer.mvcc_ms",
			"committer.persist_wait_ms", "committer.persist_ms")
		r.set("identity.verify_cache_hit_frac", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
		r.set("identity.sig_verifies_per_tx", ratio(float64(misses), float64(tracedTxs)), tracedTxs)
		r.set("orderer.tx_per_block", ratio(float64(txs), float64(head)), int(head))
		r.set("blockstore.bytes_per_tx", ratio(float64(blockBytes)/rounds, float64(txs)), tracedRounds)
		r.set("recovery.checkpoint_bytes_per_tx", ratio(float64(ckBytes)/rounds, float64(txs)), tracedRounds)
		r.set("recovery.replayed_blocks", mean(replayed), len(replayed))
		reportRuntime(r, runtimeReading{}, rtCatchup, tracedTxs)
		ca, err := identity.NewVerifyingCA(f.net.CA().CertPEM())
		if err != nil {
			return err
		}
		us, n, err := deserializeMicros(identity.NewMSP(ca), f.ser)
		if err != nil {
			return err
		}
		r.set("identity.deserialize_us", us, n)
	}
	f.checkNetwork(r, g)
	f.verify(e, r, g, ts, s, true)
	return nil
}
