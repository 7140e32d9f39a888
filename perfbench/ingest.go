package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// The adult-ingest-fleet workload: an ADULT incremental publication on an
// in-process fleet (3 replicas, rf 2, default checkpointing and
// compaction) reached through Fleet.Handler over loopback. A writer sends
// 50-record binary /insert batches and waits for each ack; a reader
// concurrently sends 200-query binary /query freshness batches, every 10th
// request a 50-set /reconstruct batch. Every body differs from its
// neighbours, because the router hashes the body to pick the holder and the
// verification sample.
//
// A read races the insert stream, so its answers are checked against every
// insert prefix it could have seen: after the window a standalone
// serve.Server replays the acknowledged insert frames in order, and each
// read must equal the in-process answers of one prefix between the inserts
// acknowledged when it was sent and those sent when it returned.
// At the end the router's sampled verification, which re-asks a second
// holder, must have found no mismatch.

const (
	fleetQueryBatches  = 512
	fleetPerQuery      = 200
	fleetReconBatches  = 64
	fleetPerRecon      = 50
	fleetInsertBatches = 4096
	fleetDim           = 2
)

func fleetConfig() fleet.Config {
	return fleet.Config{Replicas: 3, ReplicationFactor: 2, Serve: serveConfig()}
}

func ingestShape() (inputShape, error) {
	aid, err := pubID(adultRequest())
	if err != nil {
		return inputShape{}, err
	}
	s := datagen.AdultSchema()
	return inputShape{
		querySchema: s, queryPub: aid,
		queryBatches: fleetQueryBatches, perQuery: fleetPerQuery, queryDim: fleetDim,
		reconBatches: fleetReconBatches, perRecon: fleetPerRecon, reconDim: fleetDim,
		insertSchema: s, insertPub: aid,
		insertBatches: fleetInsertBatches, perInsert: perInsert,
		clients: clientIDs,
	}, nil
}

// fleetTarget is one set-up fleet behind a loopback listener.
type fleetTarget struct {
	f   *fleet.Fleet
	ts  *httptest.Server
	id  string
	pub *serve.Publication // generation 0, before any insert
}

func (t *fleetTarget) close() {
	t.ts.Close()
	t.f.Close()
}

// setUpFleet builds the fleet, publishes on both holders with wait and
// fetches the first correct answer through the router.
func setUpFleet(in *inputs, ops *tally) (*fleetTarget, error) {
	t := &fleetTarget{f: fleet.New(fleetConfig())}
	t.ts = httptest.NewServer(t.f.Handler())
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	var err error
	if t.id, err = t.f.Publish(adultRequest()); err != nil {
		return nil, err
	}
	if t.pub, err = t.f.Publication(t.id); err != nil {
		return nil, err
	}
	if err := firstAnswer(t.ts.URL, t.pub, &in.queries[0], true, ops); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// fleetRead is one reader reply kept for the prefix check, as a digest of
// its answers.
type fleetRead struct {
	recon  bool
	batch  int
	lo, hi int // insert prefixes the reply may reflect
	digest uint64
}

func runIngest(o options) (*outcome, error) {
	sh, err := ingestShape()
	if err != nil {
		return nil, err
	}
	in, err := genInputs(o.seed, sh)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceIngest(o, in)
	}
	out := newOutcome()
	var ops tally
	var clock setupClock
	tgt, err := timeSetups(setups, &clock, &ops, func(t *tally) (*fleetTarget, error) { return setUpFleet(in, t) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if tgt != nil {
			tgt.close()
		}
	}()
	setupMetrics(out, &clock)

	sa := tgt.pub.Orig.SAAttr()
	writer, reader := newClient(tgt.ts.URL, sa), newClient(tgt.ts.URL, sa)
	defer writer.close()
	defer reader.close()
	base := tgt.pub.Meta.Records

	var sent, acked atomic.Int64
	var wt, rt tally
	var reads []fleetRead
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	ref := newRefKernel()
	defer ref.close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; time.Since(start) < window; k++ {
			sent.Store(int64(k + 1))
			if !insertOp(writer, &in.inserts[k%len(in.inserts)], true, base+(k+1)*perInsert, &wt, start) {
				return // the stream's state is unknown from here on
			}
			acked.Store(int64(k + 1))
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; time.Since(start) < window; j++ {
			if r, ok := fleetReadOp(reader, in, j, &rt, start, &sent, &acked); ok {
				reads = append(reads, r)
			}
			ref.maybe()
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	ops.merge(&wt)
	ops.merge(&rt)
	readMetrics(out, &rt, elapsed)
	insertMetrics(out, &wt, elapsed)
	costMetrics(out, ref, "query", "reconstruct", "insert")

	st := tgt.f.Stats()
	out.check(st.Requests == uint64(ops.attempted), "router routed %d requests, clients sent %d", st.Requests, ops.attempted)
	out.check(st.InsertsRouted == uint64(wt.insertBatches), "router routed %d inserts, writer got %d acks", st.InsertsRouted, wt.insertBatches)
	out.check(st.TotalCharged == ops.charged, "router charged %d, responses charged %d", st.TotalCharged, ops.charged)
	out.check(st.Checkpoints == uint64(wt.insertBatches)/uint64(tgt.f.Config().CheckpointLog),
		"%d checkpoints after %d inserts", st.Checkpoints, wt.insertBatches)
	out.check(st.Retries+st.Failovers+st.Shed+st.Unavailable+st.BudgetRejected == 0,
		"router retried %d, failed over %d, shed %d, unavailable %d, budget-refused %d",
		st.Retries, st.Failovers, st.Shed, st.Unavailable, st.BudgetRejected)
	out.check(st.VerifyMismatches == 0, "%d of %d sampled answers disagreed across replicas", st.VerifyMismatches, st.Verified)
	agree := tgt.f.ReplicaAgreement(tgt.id)
	out.check(agree == nil, "replicas disagree: %v", agree)
	var fleetDigest string
	fpub, err := tgt.f.Publication(tgt.id)
	out.check(err == nil, "fleet publication: %v", err)
	if err == nil {
		fleetDigest = fpub.Digest()
	}
	out.set("heap_live_mib", "MiB", targetHeapMiB(func() { tgt.close(); tgt = nil }))

	mirrorDigest, unmatched, err := replayMirror(in, int(acked.Load()), reads)
	if err != nil {
		return nil, err
	}
	out.check(unmatched == 0, "%d of %d reads match no insert prefix they could have seen", unmatched, len(reads))
	out.check(fleetDigest == mirrorDigest, "fleet digest %s differs from the standalone mirror's %s", fleetDigest, mirrorDigest)
	out.ops = ops
	return out, nil
}

// fleetReadOp sends reader request j and keeps its decoded reply with the
// insert prefixes it may reflect.
func fleetReadOp(cl *client, in *inputs, j int, t *tally, start time.Time, sent, acked *atomic.Int64) (fleetRead, bool) {
	t.attempted++
	id := in.clients[j%len(in.clients)]
	r := fleetRead{lo: int(acked.Load())}
	c0, t0 := processCPU(), time.Now()
	var rep reply
	var err error
	if j%reconEvery == reconEvery-1 {
		r.recon, r.batch = true, (j/reconEvery)%len(in.recons)
		rep, err = cl.reconstruct(&in.recons[r.batch], true, id)
	} else {
		r.batch = j % len(in.queries)
		rep, err = cl.query(&in.queries[r.batch], true, id)
	}
	d, cpu := time.Since(t0), processCPU()-c0
	r.hi = int(sent.Load())
	if err != nil {
		t.fail("read", err)
		return r, false
	}
	s := sample{at: time.Since(start), d: d, cpu: cpu}
	t.charged += rep.charged
	if r.recon {
		r.digest = reconsDigest(rep.recons)
		s.n = len(in.recons[r.batch].sets)
		t.r = append(t.r, s)
		t.reconBatches++
		t.subsets += int64(len(in.recons[r.batch].sets))
	} else {
		r.digest = answersDigest(rep.answers)
		s.n = len(in.queries[r.batch].queries)
		t.q = append(t.q, s)
		t.queryBatches++
		t.queries += int64(len(in.queries[r.batch].queries))
	}
	return r, true
}

// replayMirror applies the first n insert frames to a standalone server in
// order and checks every read against each prefix it may reflect. It
// returns the mirror's final publication digest and the count of reads equal
// to no prefix they could have seen.
func replayMirror(in *inputs, n int, reads []fleetRead) (digest string, unmatched int, err error) {
	mirror := serve.New(serveConfig())
	e, _, err := mirror.Publish(adultRequest(), true)
	if err != nil {
		return "", 0, err
	}
	h := mirror.Handler()
	pub, err := e.Publication()
	if err != nil {
		return "", 0, err
	}
	pf, err := newPrefixes(pub, in)
	if err != nil {
		return "", 0, err
	}
	matched := make([]bool, len(reads))
	lo := 0
	for k := 0; k <= n; k++ {
		if k > 0 {
			if err := postRecorded(h, "/insert", in.inserts[(k-1)%len(in.inserts)].frame); err != nil {
				return "", 0, fmt.Errorf("mirror insert %d: %w", k, err)
			}
			if pub, err = e.Publication(); err != nil {
				return "", 0, err
			}
		}
		for lo < len(reads) && reads[lo].hi < k {
			lo++
		}
		// Evaluation stays on one core: the mirror's background compaction
		// needs the other, or the generation stack every answer sums grows.
		for i := lo; i < len(reads) && reads[i].lo <= k; i++ {
			if !matched[i] && reads[i].hi >= k {
				matched[i] = pf.digest(pub, &reads[i]) == reads[i].digest
			}
		}
	}
	for _, m := range matched {
		if !m {
			unmatched++
		}
	}
	return pub.Digest(), unmatched, nil
}

// prefixes answers read batches on one insert prefix after another. The
// value mapping never changes as records arrive, so each batch is mapped to
// engine codes once and only evaluated per prefix.
type prefixes struct {
	queries [][]query.Query
	sets    [][][]query.Cond
	scratch []query.Answer
}

func newPrefixes(pub *serve.Publication, in *inputs) (*prefixes, error) {
	p := &prefixes{}
	for _, b := range in.queries {
		eq, err := engineQueries(pub, b.queries)
		if err != nil {
			return nil, err
		}
		p.queries = append(p.queries, eq)
	}
	for _, b := range in.recons {
		es, err := engineSets(pub, b.sets)
		if err != nil {
			return nil, err
		}
		p.sets = append(p.sets, es)
	}
	return p, nil
}

// digest is the digest of the in-process answers to a read's batch on the
// prefix pub holds.
func (p *prefixes) digest(pub *serve.Publication, r *fleetRead) uint64 {
	if r.recon {
		return reconsDigest(pub.Eng.ReconstructBatch(p.sets[r.batch], reconstruct.BatchOptions{Workers: 1}))
	}
	p.scratch = pub.Marg.AnswerBatchInto(p.scratch, p.queries[r.batch], pub.Req.P, 1)
	return answersDigest(p.scratch)
}

// postRecorded drives a handler with a binary body and no socket.
func postRecorded(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, binaryRequest(path, body))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s returned %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

func binaryRequest(path string, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	return req
}
