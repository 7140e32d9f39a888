package main

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
)

// The census workloads: a CENSUS 300K SPS publication (p 0.5, λ = δ = 0.3,
// max_dim 3) on one serve.Server over loopback HTTP. An analyst sends
// 5,000-query /query batches, every 10th request a 500-set
// /reconstruct batch, under zipf-distributed client ids with budget
// enforcement on. census-binary speaks the binary wire frames, census-json
// the same batches as JSON labels. insertShare of the window is a firehose
// of 50-record /insert batches, in the workload's encoding, into an ADULT
// incremental publication on a second server, so the single-server insert
// path is measured in both encodings too. The firehose has a server of its
// own because background compaction can fall behind it and keep hundreds
// of MiB of delta generations after it stops; the analyst's server's memory
// (heap_live_mib) is measured apart from that, and the firehose server's is
// reported beside it.
//
// The window is cut into rounds, each a set-up that is torn down at once, an
// analyst phase and a firehose phase, so that every metric samples the whole
// run: the machine's speed drifts over seconds, and a metric measured in one
// stretch of the run follows wherever that stretch fell.

const (
	censusSize          = 300000
	censusQueryBatches  = 24
	censusPerQuery      = 5000
	censusReconBatches  = 8
	censusPerRecon      = 500
	censusInsertBatches = 256
	perInsert           = 50
	reconEvery          = 10   // every reconEvery-th analyst request is a /reconstruct
	clientIDs           = 4096 // zipf client-id draws, cycled
	setups              = 9    // fleet set-ups per run; setup_s is their median
	rounds              = 10   // census set-up, analyst and firehose rounds per window
	insertShare         = 0.25 // share of each round given to the insert firehose
	warmupRequests      = 3    // untimed analyst requests before the window
	defaultCompactEvery = 8    // serve.Config's default bound on the generation stack
)

// Budget enforcement stays on with quotas far above anything a run spends,
// so every charge is exercised and none is refused.
const (
	clientQuota = 1 << 50
	pubQuota    = 1 << 52
)

func serveConfig() serve.Config {
	return serve.Config{BudgetQuota: clientQuota, BudgetPublicationQuota: pubQuota}
}

func censusRequest() serve.PublishRequest {
	return serve.PublishRequest{Dataset: serve.DatasetCensus, Size: censusSize, P: 0.5, Lambda: 0.3, Delta: 0.3, MaxDim: 3}
}

func adultRequest() serve.PublishRequest {
	return serve.PublishRequest{Dataset: serve.DatasetAdult, Method: serve.MethodIncremental}
}

// pubID is the id a publish request is served under.
func pubID(req serve.PublishRequest) (string, error) {
	if err := req.Normalize(); err != nil {
		return "", err
	}
	return serve.IDForKey(req.Key()), nil
}

func censusShape() (inputShape, error) {
	cid, err := pubID(censusRequest())
	if err != nil {
		return inputShape{}, err
	}
	aid, err := pubID(adultRequest())
	if err != nil {
		return inputShape{}, err
	}
	return inputShape{
		querySchema: datagen.CensusSchema(), queryPub: cid,
		queryBatches: censusQueryBatches, perQuery: censusPerQuery, queryDim: 3,
		reconBatches: censusReconBatches, perRecon: censusPerRecon, reconDim: 3,
		insertSchema: datagen.AdultSchema(), insertPub: aid,
		insertBatches: censusInsertBatches, perInsert: perInsert, jsonInserts: true,
		clients: clientIDs,
	}, nil
}

// censusTarget is one set-up pair of servers behind loopback listeners.
type censusTarget struct {
	srv, ingest *serve.Server
	ts, its     *httptest.Server
	pub         *serve.Publication // CENSUS on srv, answers queries and reconstructions
	adult       *serve.Publication // ADULT incremental on ingest, takes inserts
}

func (t *censusTarget) close() {
	t.closeAnalysts()
	t.closeIngest()
}

func (t *censusTarget) closeAnalysts() {
	if t.ts != nil {
		t.ts.Close()
	}
	t.srv, t.ts, t.pub = nil, nil, nil
}

func (t *censusTarget) closeIngest() {
	if t.its != nil {
		t.its.Close()
	}
	t.ingest, t.its, t.adult = nil, nil, nil
}

// publish publishes req on srv with wait and returns the publication.
func publish(srv *serve.Server, req serve.PublishRequest) (*serve.Publication, error) {
	e, _, err := srv.Publish(req, true)
	if err != nil {
		return nil, err
	}
	return e.Publication()
}

// setUpCensus builds both servers, publishes with wait and fetches the
// first correct answer. The setup request is added to ops.
func setUpCensus(in *inputs, binary bool, ops *tally) (*censusTarget, error) {
	t := &censusTarget{srv: serve.New(serveConfig()), ingest: serve.New(serveConfig())}
	t.ts, t.its = httptest.NewServer(t.srv.Handler()), httptest.NewServer(t.ingest.Handler())
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	var err error
	if t.pub, err = publish(t.srv, censusRequest()); err != nil {
		return nil, err
	}
	if t.adult, err = publish(t.ingest, adultRequest()); err != nil {
		return nil, err
	}
	if err := firstAnswer(t.ts.URL, t.pub, &in.queries[0], binary, ops); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// firstAnswer is the last step of a set-up: the first query batch, served
// and checked against the in-process reference.
func firstAnswer(url string, pub *serve.Publication, b *queryBatch, binary bool, ops *tally) error {
	want, err := wantAnswers(pub, b.queries)
	if err != nil {
		return err
	}
	c := newClient(url, pub.Orig.SAAttr())
	defer c.close()
	if err := queryOp(c, b, want, binary, "setup", ops, nil, time.Time{}); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	return nil
}

// setupClock holds the process CPU time and the wall time of each set-up
// of a run, in seconds.
type setupClock struct{ cpu, wall []float64 }

// timeSetUp times one set-up after a forced GC, so that no earlier garbage
// is collected on its clock.
func timeSetUp[T any](c *setupClock, setUp func() (T, error)) (T, error) {
	runtime.GC()
	c0, t0 := processCPU(), time.Now()
	tgt, err := setUp()
	if err == nil {
		c.cpu = append(c.cpu, (processCPU() - c0).Seconds())
		c.wall = append(c.wall, time.Since(t0).Seconds())
	}
	return tgt, err
}

// timeSetups sets up n times in a row and keeps the last target. Only the
// kept target's setup request lands in ops.
func timeSetups[T interface{ close() }](n int, c *setupClock, ops *tally, setUp func(*tally) (T, error)) (T, error) {
	var last T
	for i := 0; i < n; i++ {
		var t tally
		tgt, err := timeSetUp(c, func() (T, error) { return setUp(&t) })
		if err != nil {
			return last, err
		}
		if i < n-1 {
			tgt.close()
			continue
		}
		last = tgt
		ops.merge(&t)
	}
	return last, nil
}

func runCensus(o options, binary bool) (*outcome, error) {
	sh, err := censusShape()
	if err != nil {
		return nil, err
	}
	in, err := genInputs(o.seed, sh)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceCensus(o, in, binary)
	}
	out := newOutcome()
	var ops tally
	var clock setupClock
	tgt, err := timeSetUp(&clock, func() (*censusTarget, error) { return setUpCensus(in, binary, &ops) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if tgt != nil {
			tgt.close()
		}
	}()

	// The in-process reference for every batch, computed outside the window.
	for i := range in.queries {
		if in.queries[i].want, err = wantAnswers(tgt.pub, in.queries[i].queries); err != nil {
			return nil, err
		}
	}
	for i := range in.recons {
		if in.recons[i].want, err = wantRecons(tgt.pub, in.recons[i].sets); err != nil {
			return nil, err
		}
	}

	// One analyst, so the loop is serial and the process CPU time over a
	// request is that request's own.
	analyst := newClient(tgt.ts.URL, tgt.pub.Orig.SAAttr())
	defer analyst.close()
	// Binary and JSON must agree on the shared batches: the other
	// encoding answers the first query and reconstruct batch as well.
	crossEncoding(analyst, in, !binary, &ops)
	for j := 0; j < warmupRequests; j++ {
		analystOp(analyst, in, binary, j, &ops, nil, time.Time{})
	}
	// The insert firehose: one writer, each ack checked against the
	// publication's running record total.
	writer := newClient(tgt.its.URL, tgt.adult.Orig.SAAttr())
	defer writer.close()
	base := tgt.adult.Meta.Records

	window := time.Duration(o.seconds) * time.Second
	analystRound := time.Duration(float64(window) * (1 - insertShare) / rounds)
	insertRound := window/rounds - analystRound
	// Samples carry their time since the start of the first phase of their
	// kind, counting only the time spent in phases of that kind.
	var win, ins tally
	var elapsed, ielapsed time.Duration
	ref := newRefKernel()
	defer ref.close()
	j, k := warmupRequests, 0
	for r := 0; r < rounds; r++ {
		extra, err := timeSetUp(&clock, func() (*censusTarget, error) {
			var t tally
			return setUpCensus(in, binary, &t)
		})
		if err != nil {
			return nil, err
		}
		extra.close()
		start, end := time.Now().Add(-elapsed), elapsed+analystRound
		for ; time.Since(start) < end; j++ {
			analystOp(analyst, in, binary, j, &win, &win, start)
			ref.maybe()
		}
		elapsed = time.Since(start)
		istart, iend := time.Now().Add(-ielapsed), ielapsed+insertRound
		for ; time.Since(istart) < iend; k++ {
			insertOp(writer, &in.inserts[k%len(in.inserts)], binary, base+(k+1)*perInsert, &ins, istart)
			ref.maybe()
		}
		ielapsed = time.Since(istart)
	}
	ops.merge(&win)
	ops.merge(&ins)
	setupMetrics(out, &clock)

	st, ist := tgt.srv.Stats(), tgt.ingest.Stats()
	out.check(st.QueriesAnswered == uint64(ops.queries), "server answered %d queries, clients counted %d", st.QueriesAnswered, ops.queries)
	out.check(st.Reconstructions == uint64(ops.subsets), "server reconstructed %d sets, clients counted %d", st.Reconstructions, ops.subsets)
	out.check(st.TotalCharged == ops.charged, "server charged %d, responses charged %d", st.TotalCharged, ops.charged)
	out.check(st.LatencyObservations == uint64(ops.queryBatches+ops.reconBatches),
		"server observed %d latencies, clients got %d answered batches", st.LatencyObservations, ops.queryBatches+ops.reconBatches)
	out.check(ist.Inserts == uint64(ops.inserted), "server inserted %d records, clients %d", ist.Inserts, ops.inserted)
	out.check(st.QueryErrors == 0, "server counted %d query errors", st.QueryErrors)
	out.check(st.Budget.RejectedClientQuota+st.Budget.RejectedPubQuota+st.Budget.RejectedDegraded == 0, "budget refused requests")

	readMetrics(out, &win, elapsed)
	insertMetrics(out, &ins, ielapsed)
	costMetrics(out, ref, "query", "reconstruct", "insert")
	// The stack height of the firehose's publication says whether
	// background compaction kept up: CompactEvery is meant to bound it.
	aid, err := pubID(adultRequest())
	if err != nil {
		return nil, err
	}
	apub, err := tgt.ingest.Lookup(aid).Publication()
	if err != nil {
		return nil, err
	}
	gens := apub.Marg.Generations()
	out.set("ingest_generations", "count", float64(gens))
	if gens > defaultCompactEvery {
		out.notes = append(out.notes, fmt.Sprintf("the insert publication ended with %d marginal generations: background compaction fell behind the firehose", gens))
	}
	out.set("heap_live_mib", "MiB", targetHeapMiB(tgt.closeAnalysts))
	out.set("ingest_heap_mib", "MiB", targetHeapMiB(func() { tgt.closeIngest(); tgt = nil }))
	runtime.KeepAlive(in)
	out.ops = ops
	return out, nil
}

// crossEncoding sends the first query and reconstruct batch in the other
// encoding; the answers must equal the same in-process reference.
func crossEncoding(cl *client, in *inputs, binary bool, t *tally) {
	queryOp(cl, &in.queries[0], in.queries[0].want, binary, "cross-encoding", t, nil, time.Time{})
	reconOp(cl, &in.recons[0], binary, "cross-encoding", t, nil, time.Time{})
}

// analystOp sends analyst request j and verifies it. Latency samples go
// to lat when it is non-nil.
func analystOp(cl *client, in *inputs, binary bool, j int, t, lat *tally, start time.Time) {
	id := in.clients[j%len(in.clients)]
	if j%reconEvery == reconEvery-1 {
		reconOp(cl, &in.recons[(j/reconEvery)%len(in.recons)], binary, id, t, lat, start)
		return
	}
	b := &in.queries[j%len(in.queries)]
	queryOp(cl, b, b.want, binary, id, t, lat, start)
}

// queryOp sends one /query batch as client id and checks it against want.
// Latency samples go to lat when it is non-nil.
func queryOp(cl *client, b *queryBatch, want []query.Answer, binary bool, id string, t, lat *tally, start time.Time) error {
	t.attempted++
	c0, t0 := processCPU(), time.Now()
	rep, err := cl.query(b, binary, id)
	if err == nil {
		err = checkAnswers(rep.answers, want)
	}
	if err != nil {
		t.fail("query", err)
		return err
	}
	if lat != nil {
		lat.q = append(lat.q, sample{at: time.Since(start), d: time.Since(t0), cpu: processCPU() - c0, n: len(b.queries)})
	}
	t.queryBatches++
	t.queries += int64(len(b.queries))
	t.charged += rep.charged
	return nil
}

// reconOp sends one /reconstruct batch as client id and checks it.
func reconOp(cl *client, b *reconBatch, binary bool, id string, t, lat *tally, start time.Time) {
	t.attempted++
	c0, t0 := processCPU(), time.Now()
	rep, err := cl.reconstruct(b, binary, id)
	if err == nil {
		err = checkRecons(rep.recons, b.want)
	}
	if err != nil {
		t.fail("reconstruct", err)
		return
	}
	if lat != nil {
		lat.r = append(lat.r, sample{at: time.Since(start), d: time.Since(t0), cpu: processCPU() - c0, n: len(b.sets)})
	}
	t.reconBatches++
	t.subsets += int64(len(b.sets))
	t.charged += rep.charged
}

// insertOp lands one insert batch and checks the ack's running total.
func insertOp(cl *client, b *insertBatch, binary bool, wantTotal int, t *tally, start time.Time) bool {
	t.attempted++
	c0, t0 := processCPU(), time.Now()
	rep, err := cl.insert(b, binary)
	if err == nil && (rep.inserted != len(b.records) || rep.total != wantTotal) {
		err = fmt.Errorf("ack says %d inserted, %d total; want %d and %d", rep.inserted, rep.total, len(b.records), wantTotal)
	}
	if err != nil {
		t.fail("insert", err)
		return false
	}
	t.ins = append(t.ins, sample{at: time.Since(start), d: time.Since(t0), cpu: processCPU() - c0, n: rep.inserted})
	t.insertBatches++
	t.inserted += int64(rep.inserted)
	return true
}
