package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// The traced run replays a workload's inputs through each layer's public
// functions, one call at a time, under spans recorded here around those
// calls; the program itself carries no instrumentation. Each read batch is
// sent
//
//   - over loopback HTTP to the workload's target ("client"),
//   - to the standalone serve.Server handler on an httptest.ResponseRecorder,
//     with no socket ("serve.handler"),
//   - through the handler's stages called one by one ("pipeline": decode,
//     resolve, budget charge, evaluate, encode),
//   - to the fleet handler on a recorder ("fleet.handler"),
//   - and through the other encoding's codec, so both codecs are measured on
//     the same batch.
//
// Every reply is checked by the same gate as the untraced run. Insert
// batches go to the standalone and fleet handlers. The run has three
// phases: the cold publishing chain, a fixed count of inserts and
// time-bounded reads. The tracing overhead is the share of the run spent
// recording spans.

const (
	coldReps     = 3     // repetitions of the cold chain; its metrics are medians
	tracedInsert = 256   // insert batches of the traced run, a fixed count so counts repeat
	countedReads = 20    // reads after which the read-side counts are taken
	allocBatches = 8     // handler calls the allocation count is averaged over
	costSpans    = 10000 // empty spans per timing of the recording cost
	costReps     = 5     // timings; the cost is their median
	reconPrefix  = "reconstruct."
)

// rig is one traced run's targets, scratch and tallies.
type rig struct {
	tr     *tracer
	in     *inputs
	binary bool // the workload's encoding
	// viaFleet: the loopback client reaches the fleet, not the server.
	viaFleet bool
	sh, fh   http.Handler
	srv      *serve.Server
	f        *fleet.Fleet
	cl       *client // loopback client in the workload's encoding
	pub      *serve.Publication
	bm       *budget.Manager
	workers  int
	ops      tally
	req      int
	out      *outcome

	qr   wire.QueryReq
	rr   wire.ReconstructReq
	ir   wire.InsertReq
	qs   []query.Query
	errs []error
	ans  []query.Answer
	buf  []byte

	bytes map[string][]float64
}

// coldChain times the CENSUS cold publishing path stage by stage and then
// the serve and fleet publishes of the workload's publications. The last
// repetition's server and fleet are returned as the run's targets.
func coldChain(tr *tracer, reqs []serve.PublishRequest) (*serve.Server, *fleet.Fleet, error) {
	var srv *serve.Server
	var f *fleet.Fleet
	for rep := 0; rep < coldReps; rep++ {
		var err error
		var raw *dataset.Table
		var an *chimerge.Result
		var gs, pubGS *dataset.GroupSet
		var marg *query.Marginals
		creq := censusRequest()
		p := creq.Params()
		tr.do("datagen.census", -1, -1, func() { raw, err = datagen.Census(censusSize, 1) })
		if err == nil {
			tr.do("chimerge.analyze", -1, -1, func() { an, err = chimerge.Analyze(raw, chimerge.DefaultSignificance, 0) })
		}
		if err == nil {
			tr.do("dataset.groups", -1, -1, func() { gs, err = dataset.GroupsOfMapped(raw, an.Mappings, 0) })
		}
		if err == nil {
			tr.do("core.sps", -1, -1, func() { pubGS, _, err = core.PublishSPSParallel(1, gs, p, 0) })
		}
		if err == nil {
			tr.do("query.build_marginals", -1, -1, func() { marg, err = query.BuildMarginalsFromGroupsParallel(pubGS, 3, 0) })
		}
		if err == nil {
			tr.do("reconstruct.new_engine", -1, -1, func() { _, err = reconstruct.NewEngine(marg, p.P) })
		}
		if err != nil {
			return nil, nil, fmt.Errorf("cold chain: %w", err)
		}
		if f != nil {
			f.Close()
		}
		srv, f = serve.New(serveConfig()), fleet.New(fleetConfig())
		tr.do("serve.publish", -1, -1, func() {
			for _, r := range reqs {
				if _, _, err = srv.Publish(r, true); err != nil {
					return
				}
			}
		})
		if err == nil {
			tr.do("fleet.publish", -1, -1, func() {
				for _, r := range reqs {
					if _, err = f.Publish(r); err != nil {
						return
					}
				}
			})
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("publish: %w", err)
		}
	}
	return srv, f, nil
}

func traceCensus(o options, in *inputs, binary bool) (*outcome, error) {
	return traceRun(o, in, binary, []serve.PublishRequest{censusRequest(), adultRequest()}, false)
}

func traceIngest(o options, in *inputs) (*outcome, error) {
	return traceRun(o, in, true, []serve.PublishRequest{adultRequest()}, true)
}

// traceRun is the traced run of any workload. viaFleet says whether the
// workload's loopback target is the fleet rather than the server.
func traceRun(o options, in *inputs, binary bool, reqs []serve.PublishRequest, viaFleet bool) (*outcome, error) {
	tr := newTracer()
	srv, f, err := coldChain(tr, reqs)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &rig{
		tr: tr, in: in, binary: binary, viaFleet: viaFleet, srv: srv, sh: srv.Handler(), f: f, fh: f.Handler(),
		bm:      budget.New(budget.Config{Quota: clientQuota, PublicationQuota: pubQuota}),
		workers: runtime.GOMAXPROCS(0), out: newOutcome(), bytes: map[string][]float64{},
	}
	target := r.sh
	if viaFleet {
		target = r.fh
	}
	ts := httptest.NewServer(target)
	defer ts.Close()

	if err := r.inserts(); err != nil {
		return nil, err
	}
	head, err := wire.PeekHead(in.queries[0].frame)
	if err != nil {
		return nil, err
	}
	qid := string(head.ID)
	e := srv.Lookup(qid)
	if e == nil {
		return nil, fmt.Errorf("no publication %q", qid)
	}
	if r.pub, err = e.Publication(); err != nil {
		return nil, err
	}
	for i := range in.queries {
		if in.queries[i].want, err = wantAnswers(r.pub, in.queries[i].queries); err != nil {
			return nil, err
		}
	}
	for i := range in.recons {
		if in.recons[i].want, err = wantRecons(r.pub, in.recons[i].sets); err != nil {
			return nil, err
		}
	}
	r.cl = newClient(ts.URL, r.pub.Orig.SAAttr())
	defer r.cl.close()
	r.allocs()

	window := time.Duration(o.seconds) * time.Second
	readsUntil := time.Now().Add(window)
	gc0 := gcCycles()
	for j := 0; j < countedReads || time.Now().Before(readsUntil); j++ {
		r.read(j)
		if j == countedReads-1 {
			r.readCounts(gc0)
		}
	}

	// The fleet and the standalone server took the same inserts: every
	// publication must agree across holders and with the server.
	for _, req := range reqs {
		id, err := pubID(req)
		if err != nil {
			return nil, err
		}
		agree := f.ReplicaAgreement(id)
		r.out.check(agree == nil, "replicas disagree: %v", agree)
		fpub, ferr := f.Publication(id)
		spub, serr := srv.Lookup(id).Publication()
		r.out.check(ferr == nil && serr == nil && fpub.Digest() == spub.Digest(),
			"fleet and server digests of %s differ (errors %v, %v)", id, ferr, serr)
	}
	r.out.check(f.Stats().VerifyMismatches == 0, "%d sampled answers disagreed across replicas", f.Stats().VerifyMismatches)
	r.layerMetrics()
	r.traceCost()
	r.out.ops = r.ops
	name := fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed)
	if err := tr.write(filepath.Join(outDir, name)); err != nil {
		return nil, err
	}
	return r.out, nil
}

// record drives a handler on a ResponseRecorder, with no socket.
func (r *rig) record(h http.Handler, path string, binary bool, clientID string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s returned %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

func (r *rig) next() int {
	r.req++
	return r.req
}

// inserts replays a fixed count of insert batches through the standalone
// and fleet handlers; both ack the same running total.
func (r *rig) inserts() error {
	head, err := wire.PeekHead(r.in.inserts[0].frame)
	if err != nil {
		return err
	}
	aid := string(head.ID)
	e := r.srv.Lookup(aid)
	if e == nil {
		return fmt.Errorf("no publication %q", aid)
	}
	apub, err := e.Publication()
	if err != nil {
		return err
	}
	base := apub.Meta.Records
	for k := 0; k < tracedInsert; k++ {
		b := &r.in.inserts[k%len(r.in.inserts)]
		id := r.next()
		req := inEncoding(b.json, b.frame, r.binary)
		for _, h := range []struct {
			name string
			h    http.Handler
		}{{"serve.insert_handler", r.sh}, {"fleet.insert_handler", r.fh}} {
			r.ops.attempted++
			var rec *httptest.ResponseRecorder
			r.tr.do(h.name, -1, id, func() { rec, err = r.record(h.h, "/insert", r.binary, "", req) })
			var rep reply
			if err == nil {
				rep, err = decodeInsert(rec.Body.Bytes(), r.binary, new(wire.InsertResp))
			}
			if err == nil && rep.total != base+(k+1)*perInsert {
				err = fmt.Errorf("ack total %d, want %d", rep.total, base+(k+1)*perInsert)
			}
			if err != nil {
				r.ops.fail(h.name, err)
			}
		}
		r.tr.do("wire.insert_decode", -1, id, func() { err = r.ir.Decode(b.frame) })
		if err != nil {
			return fmt.Errorf("decoding insert frame: %w", err)
		}
	}
	st, fs := r.srv.Stats(), r.f.Stats()
	r.out.set("serve.ingest_appends", "count", float64(st.IngestAppends))
	r.out.set("serve.compactions", "count", float64(st.Compactions))
	r.out.set("fleet.checkpoints", "count", float64(fs.Checkpoints))
	r.out.check(fs.InsertsRouted == tracedInsert, "router routed %d inserts, want %d", fs.InsertsRouted, tracedInsert)
	return nil
}

// allocs measures heap bytes allocated per served query batch over a few
// standalone handler calls.
func (r *rig) allocs() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocBatches; i++ {
		b := &r.in.queries[i%len(r.in.queries)]
		r.ops.attempted++
		rec, err := r.record(r.sh, "/query", r.binary, "allocs", inEncoding(b.json, b.frame, r.binary))
		if err == nil {
			err = r.checkQuery(rec.Body.Bytes(), r.binary, b)
		}
		if err != nil {
			r.ops.fail("allocs query", err)
		}
	}
	runtime.ReadMemStats(&m1)
	r.out.set("runtime.alloc_bytes_per_batch", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/allocBatches)
}

func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// readCounts takes the read-side counts after a fixed number of reads.
func (r *rig) readCounts(gc0 uint32) {
	fs := r.f.Stats()
	r.out.set("fleet.retries", "count", float64(fs.Retries))
	r.out.set("fleet.failovers", "count", float64(fs.Failovers))
	r.out.set("fleet.verified", "count", float64(fs.Verified))
	if fs.Requests > 0 {
		r.out.set("fleet.attempts_per_request", "attempts/request", float64(fs.Requests+fs.Retries)/float64(fs.Requests))
	}
	r.out.set("runtime.gc_cycles", "count", float64(gcCycles()-gc0))
}

func (r *rig) checkQuery(body []byte, binary bool, b *queryBatch) error {
	rep, err := decodeQuery(body, binary, &wire.QueryResp{})
	if err == nil {
		err = checkAnswers(rep.answers, b.want)
	}
	return err
}

func (r *rig) checkRecon(body []byte, binary bool, b *reconBatch) error {
	rep, err := decodeRecon(body, binary, &wire.ReconstructResp{}, r.pub.Orig.SAAttr())
	if err == nil {
		err = checkRecons(rep.recons, b.want)
	}
	return err
}

// read sends read j every way a traced run sends it.
func (r *rig) read(j int) {
	id := r.next()
	client := r.in.clients[j%len(r.in.clients)]
	if j%reconEvery == reconEvery-1 {
		r.readRecon(id, client, &r.in.recons[(j/reconEvery)%len(r.in.recons)])
		return
	}
	b := &r.in.queries[j%len(r.in.queries)]
	req := inEncoding(b.json, b.frame, r.binary)
	r.op("client", func() error {
		var rep reply
		var err error
		r.tr.do("client", -1, id, func() { rep, err = r.cl.query(b, r.binary, client) })
		if err == nil {
			err = checkAnswers(rep.answers, b.want)
		}
		return err
	})
	if !r.binary {
		// The binary round trip of the same batch, for the served-binary
		// over in-process ratio every workload reports.
		r.op("client.binary", func() error {
			var rep reply
			var err error
			r.tr.do("client.binary", -1, id, func() { rep, err = r.cl.query(b, true, client) })
			if err == nil {
				err = checkAnswers(rep.answers, b.want)
			}
			return err
		})
	}
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{"serve.handler", r.sh}, {"fleet.handler", r.fh}} {
		r.op(h.name, func() error {
			var rec *httptest.ResponseRecorder
			var err error
			r.tr.do(h.name, -1, id, func() { rec, err = r.record(h.h, "/query", r.binary, client, req) })
			if err == nil {
				err = r.checkQuery(rec.Body.Bytes(), r.binary, b)
			}
			return err
		})
	}
	r.op("pipeline", func() error { return r.queryPipeline(id, client, b) })
	r.op("codec", func() error { return r.otherCodec(id, b) })
}

// op counts one checked operation.
func (r *rig) op(what string, fn func() error) {
	r.ops.attempted++
	if err := fn(); err != nil {
		r.ops.fail(what, err)
	}
}

// queryPipeline runs the /query handler's stages one by one under a
// "pipeline" span: decode, resolve, budget charge, evaluate, encode.
func (r *rig) queryPipeline(id int, client string, b *queryBatch) error {
	p := r.tr.begin("pipeline", -1, id)
	defer r.tr.end(p)
	var err error
	var jreq struct {
		ID      string            `json:"id"`
		Queries []serve.QueryJSON `json:"queries"`
	}
	n := len(b.queries)
	if r.binary {
		r.tr.do("wire.decode", p, id, func() { err = r.qr.Decode(b.frame) })
	} else {
		r.tr.do("json.decode", p, id, func() { err = json.Unmarshal(b.json, &jreq) })
	}
	if err != nil {
		return err
	}
	if cap(r.qs) < n {
		r.qs, r.errs = make([]query.Query, n), make([]error, n)
	}
	r.qs, r.errs = r.qs[:n], r.errs[:n]
	r.tr.do("serve.resolve", p, id, func() {
		par.Striped(n, r.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if !r.binary {
					r.qs[i], r.errs[i] = r.pub.Resolve(jreq.Queries[i])
					continue
				}
				q := &r.qr.Queries[i]
				r.errs[i] = r.pub.MapConds(q.Conds)
				if r.errs[i] == nil {
					r.errs[i] = r.pub.MapSA(q.SA)
				}
				r.qs[i] = query.Query{Conds: q.Conds, SA: q.SA}
			}
		})
	})
	for _, e := range r.errs {
		if e != nil {
			return e
		}
	}
	var res budget.Result
	r.tr.do("budget.charge", p, id, func() { res = r.bm.Charge(client, r.pub.ID, int64(n), budget.ClassQuery) })
	if !res.OK {
		return fmt.Errorf("budget refused %d queries: %s", n, res.Reason)
	}
	r.tr.do("query.answer_batch", p, id, func() { r.ans = r.pub.Marg.AnswerBatchInto(r.ans, r.qs, r.pub.Req.P, r.workers) })
	if err := checkAnswers(r.ans, b.want); err != nil {
		return err
	}
	if r.binary {
		r.tr.do("wire.encode", p, id, func() { r.buf = appendWireAnswers(r.buf[:0], r.pub.ID, client, r.ans) })
		r.bytes["wire.response_bytes"] = append(r.bytes["wire.response_bytes"], float64(len(r.buf)))
		return nil
	}
	r.tr.do("json.encode", p, id, func() { r.buf, err = marshalJSONAnswers(r.pub.ID, client, r.ans) })
	r.bytes["json.response_bytes"] = append(r.bytes["json.response_bytes"], float64(len(r.buf)))
	return err
}

// otherCodec runs the codec the workload does not speak over the same
// batch, so binary and JSON codec costs are both measured on every run.
func (r *rig) otherCodec(id int, b *queryBatch) error {
	var err error
	if r.binary {
		var jreq queryBody
		r.tr.do("json.decode", -1, id, func() { err = json.Unmarshal(b.json, &jreq) })
		if err != nil {
			return err
		}
		r.tr.do("json.encode", -1, id, func() { r.buf, err = marshalJSONAnswers(r.pub.ID, "codec", b.want) })
		r.bytes["json.response_bytes"] = append(r.bytes["json.response_bytes"], float64(len(r.buf)))
		return err
	}
	r.tr.do("wire.decode", -1, id, func() { err = r.qr.Decode(b.frame) })
	if err != nil {
		return err
	}
	r.tr.do("wire.encode", -1, id, func() { r.buf = appendWireAnswers(r.buf[:0], r.pub.ID, "codec", b.want) })
	r.bytes["wire.response_bytes"] = append(r.bytes["wire.response_bytes"], float64(len(r.buf)))
	return nil
}

// appendWireAnswers encodes a /query response frame the way the binary
// handler does.
func appendWireAnswers(dst []byte, id, client string, ans []query.Answer) []byte {
	wans := make([]wire.Answer, len(ans))
	for i, a := range ans {
		wans[i] = wire.Answer{Count: int64(a.Count), Estimate: a.Estimate}
	}
	resp := wire.QueryResp{ID: []byte(id), Client: []byte(client), Answers: wans}
	resp.Charged = uint64(len(ans))
	return resp.Append(dst)
}

// marshalJSONAnswers encodes a /query response with encoding/json.
func marshalJSONAnswers(id, client string, ans []query.Answer) ([]byte, error) {
	out := serve.QueryResponse{ID: id, Client: client, Answers: make([]serve.QueryAnswer, len(ans)), Charged: int64(len(ans))}
	for i, a := range ans {
		out.Answers[i] = serve.QueryAnswer{Count: a.Count, Estimate: a.Estimate}
	}
	return json.Marshal(out)
}

// readRecon sends one reconstruct batch through every path, with the
// engine call as reconstruct.batch inside its pipeline span.
func (r *rig) readRecon(id int, client string, b *reconBatch) {
	req := inEncoding(b.json, b.frame, r.binary)
	r.op(reconPrefix+"client", func() error {
		var rep reply
		var err error
		r.tr.do(reconPrefix+"client", -1, id, func() { rep, err = r.cl.reconstruct(b, r.binary, client) })
		if err == nil {
			err = checkRecons(rep.recons, b.want)
		}
		return err
	})
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{reconPrefix + "handler", r.sh}, {reconPrefix + "fleet_handler", r.fh}} {
		r.op(h.name, func() error {
			var rec *httptest.ResponseRecorder
			var err error
			r.tr.do(h.name, -1, id, func() { rec, err = r.record(h.h, "/reconstruct", r.binary, client, req) })
			if err == nil {
				err = r.checkRecon(rec.Body.Bytes(), r.binary, b)
			}
			return err
		})
	}
	r.op(reconPrefix+"pipeline", func() error {
		p := r.tr.begin(reconPrefix+"pipeline", -1, id)
		defer r.tr.end(p)
		var err error
		var sets [][]query.Cond
		r.tr.do(reconPrefix+"decode", p, id, func() {
			if err = r.rr.Decode(b.frame); err == nil {
				sets = r.rr.Subsets
			}
		})
		if err != nil {
			return err
		}
		r.tr.do(reconPrefix+"resolve", p, id, func() {
			for _, s := range sets {
				if err == nil {
					err = r.pub.MapConds(s)
				}
			}
		})
		if err != nil {
			return err
		}
		var res budget.Result
		charged := int64(len(sets)) * int64(r.pub.Marg.SADomain())
		r.tr.do(reconPrefix+"charge", p, id, func() { res = r.bm.Charge(client, r.pub.ID, charged, budget.ClassReconstruct) })
		if !res.OK {
			return fmt.Errorf("budget refused %d units: %s", charged, res.Reason)
		}
		var recs []reconstruct.Reconstruction
		r.tr.do(reconPrefix+"batch", p, id, func() {
			recs = r.pub.Eng.ReconstructBatch(sets, reconstruct.BatchOptions{Workers: r.workers})
		})
		return checkRecons(recs, b.want)
	})
}

// traceCost sets trace.overhead_pct: the share of the traced run's time
// spent recording spans, the span count times the cost of recording one
// empty span. The program itself carries no instrumentation, so this is all
// that tracing adds to the run. It is not the gap between the traced and
// untraced runs' end-to-end figures: the traced run replays one call at a
// time, so those are not comparable.
func (r *rig) traceCost() {
	elapsed := time.Since(r.tr.epoch)
	n := len(r.tr.spans)
	costs := make([]float64, costReps)
	for i := range costs {
		t := newTracer()
		t0 := time.Now()
		for j := 0; j < costSpans; j++ {
			t.do("cost", -1, j, func() {})
		}
		costs[i] = float64(time.Since(t0)) / costSpans
	}
	r.out.set("trace.overhead_pct", "%", float64(n)*median(costs)/float64(elapsed)*100)
	r.out.samples["trace.overhead_pct"] = n
}

// layerMetrics derives every per-layer metric from the span log.
func (r *rig) layerMetrics() {
	o := r.out
	spans := r.tr.spans
	self := selfTimes(spans)
	selfByName := map[string][]float64{}
	for i, s := range spans {
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[i])/float64(time.Millisecond))
	}
	o.spanSelfMS = map[string]float64{}
	for name, xs := range selfByName {
		o.spanSelfMS[name] = median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Per request: span duration by name, and the time the pipeline's
	// stages covered.
	byReq := map[int]map[string]float64{}
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]float64{}
		}
		byReq[s.Req][s.Name] = ms(s.dur())
		if s.Name == "pipeline" {
			byReq[s.Req]["pipeline.stages"] = ms(s.dur() - self[i])
		}
	}
	diffs := func(a, b string) []float64 {
		var out []float64
		for _, m := range byReq {
			x, okx := m[a]
			y, oky := m[b]
			if okx && oky {
				out = append(out, x-y)
			}
		}
		return out
	}
	named := r.tr.byName()
	med := func(metric, unit, name string, scale float64) {
		xs := named[name]
		o.samples[metric] = len(xs)
		if len(xs) == 0 {
			o.check(false, "no %s spans", name)
			return
		}
		o.set(metric, unit, median(xs)*scale)
	}
	medDiff := func(metric, a, b string) {
		xs := diffs(a, b)
		o.samples[metric] = len(xs)
		if len(xs) == 0 {
			o.check(false, "no %s and %s spans of one request", a, b)
			return
		}
		o.set(metric, "ms", median(xs))
	}

	med("serve.handler_ms", "ms", "serve.handler", 1)
	if r.viaFleet {
		medDiff("http.self_ms", "client", "fleet.handler")
	} else {
		medDiff("http.self_ms", "client", "serve.handler")
	}
	med("wire.decode_us", "us", "wire.decode", 1e3)
	med("wire.encode_us", "us", "wire.encode", 1e3)
	med("json.decode_ms", "ms", "json.decode", 1)
	med("json.encode_ms", "ms", "json.encode", 1)
	med("serve.resolve_us", "us", "serve.resolve", 1e3)
	med("budget.charge_us", "us", "budget.charge", 1e3)
	med("query.answer_batch_ms", "ms", "query.answer_batch", 1)
	med("reconstruct.batch_ms", "ms", "reconstruct.batch", 1)
	medDiff("serve.handler_self_ms", "serve.handler", "pipeline.stages")
	medDiff("fleet.self_query_ms", "fleet.handler", "serve.handler")
	medDiff("fleet.self_insert_ms", "fleet.insert_handler", "serve.insert_handler")
	med("wire.insert_decode_us", "us", "wire.insert_decode", 1e3)
	for _, stage := range []string{"datagen.census", "chimerge.analyze", "dataset.groups", "core.sps",
		"query.build_marginals", "reconstruct.new_engine", "serve.publish", "fleet.publish"} {
		med(stage+"_ms", "ms", stage, 1)
	}
	client := "client"
	if !r.binary {
		client = "client.binary"
	}
	if a := median(named["query.answer_batch"]); a > 0 {
		o.set("serve.binary_overhead_ratio", "ratio", median(named[client])/a)
	}

	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	var wreq, jreq []float64
	for _, b := range r.in.queries {
		wreq = append(wreq, float64(len(b.frame)))
		jreq = append(jreq, float64(len(b.json)))
	}
	o.set("wire.request_bytes", "bytes", mean(wreq))
	o.set("json.request_bytes", "bytes", mean(jreq))
	o.set("wire.response_bytes", "bytes", mean(r.bytes["wire.response_bytes"]))
	o.set("json.response_bytes", "bytes", mean(r.bytes["json.response_bytes"]))
}
