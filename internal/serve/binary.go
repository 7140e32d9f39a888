package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// This file is the binary hot path: POST /query and POST /reconstruct
// bodies sent with Content-Type: application/x-rp-binary are decoded as
// internal/wire frames and answered in kind. (The JSON handlers read their
// bodies through the same pooled scratch; see jsoncodec.go.) The semantics are identical
// to the JSON path — same validation order, same limits, same exposure
// accounting, same typed failures (errors are always the JSON ErrorBody
// envelope, whatever the request encoding, so the fleet's error taxonomy
// is shared) — but the steady state allocates almost nothing: request
// body, decoded frame, resolved queries, answers, and the response frame
// all live in pooled scratch.

// binScratch is one request's pooled working set.
type binScratch struct {
	body []byte // raw request frame; decoded views alias it
	out  []byte // encoded response frame
	cbuf []byte // resolved client id bytes

	req     wire.QueryReq
	rreq    wire.ReconstructReq
	ireq    wire.InsertReq
	qs      []query.Query
	errs    []error
	answers []query.Answer
	wans    []wire.Answer
	results []wire.RecResult

	// Insert-path scratch: key views over one arena plus the aligned
	// sensitive codes, refilled per request.
	ikeys   [][]uint16
	ikarena []uint16
	isas    []uint16

	// JSON-path scratch (jsoncodec.go): the scanner with its unescaping
	// buffer, decoded queries and condition sets over one condition arena,
	// and the label intern table.
	scan     jsonScanner
	jqueries []QueryJSON
	jconds   []CondJSON
	jspans   []condSpan
	jsubsets [][]CondJSON
	labels   labelTable
}

var binPool = sync.Pool{New: func() any { return new(binScratch) }}

// isBinary reports whether a request negotiated the binary framing.
func isBinary(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.ContentType
}

// readFrame reads the whole request body into the scratch buffer. A false
// return means the rejection is already written.
func (s *Server) readFrame(w http.ResponseWriter, r *http.Request, st *binScratch) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	st.body = st.body[:0]
	lr := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(st.body) == cap(st.body) {
			st.body = append(st.body, 0)[:len(st.body)]
		}
		n, err := lr.Read(st.body[len(st.body):cap(st.body)])
		st.body = st.body[:len(st.body)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
					fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
				return false
			}
			WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("reading body: %v", err))
			return false
		}
	}
}

// writeFrame emits an encoded success frame.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// handleQueryBinary answers one binary /query batch. The flow mirrors
// handleQuery exactly; divergence would show up in the JSON-vs-binary
// equivalence property test.
func (s *Server) handleQueryBinary(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := binPool.Get().(*binScratch)
	defer binPool.Put(st)
	if !s.readFrame(w, r, st) {
		return
	}
	if err := st.req.Decode(st.body); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad binary frame: %w", err))
		return
	}
	n := len(st.req.Queries)
	if n == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("empty query batch"))
		return
	}
	if n > s.cfg.MaxBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("batch of %d exceeds the limit %d", n, s.cfg.MaxBatch))
		return
	}
	pub, ok := s.resolvePublication(w, string(st.req.ID), st.req.Wait, true)
	if !ok {
		return
	}
	// Charge before evaluating, exactly like the JSON path: a budget
	// rejection (typed JSON ErrorBody even on the binary path) does no work
	// and is never charged.
	client := clientID(r, string(st.req.Client))
	bres, ok := s.chargeExposure(w, client, pub.ID, int64(n), budget.ClassQuery)
	if !ok {
		return
	}

	// Code mapping is striped like the JSON path's label resolution: the
	// per-query work is tiny, but a 100K batch should not map on one core
	// in front of the evaluation pool.
	st.qs = resizeQueries(st.qs, n)
	st.errs = resizeErrs(st.errs, n)
	par.Striped(n, s.cfg.QueryWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q := &st.req.Queries[i]
			err := pub.MapConds(q.Conds)
			if err == nil {
				err = pub.MapSA(q.SA)
			}
			st.errs[i] = err
			if err != nil {
				st.qs[i] = query.Query{}
				continue
			}
			st.qs[i] = query.Query{Conds: q.Conds, SA: q.SA}
		}
	})
	st.answers = pub.Marg.AnswerBatchInto(st.answers, st.qs, pub.Req.P, s.cfg.QueryWorkers)

	st.cbuf = append(st.cbuf[:0], client...)
	resp := wire.QueryResp{ID: st.req.ID, Client: st.cbuf}
	st.wans = st.wans[:0]
	var errs uint64
	for i := range st.answers {
		a := &st.answers[i]
		wa := wire.Answer{Count: int64(a.Count), Estimate: a.Estimate}
		if st.errs[i] != nil {
			wa = wire.Answer{Err: []byte(st.errs[i].Error())}
		} else if a.Err != nil {
			wa = wire.Answer{Err: []byte(a.Err.Error())}
		}
		if wa.Err != nil {
			errs++
		}
		st.wans = append(st.wans, wa)
	}
	resp.Answers = st.wans
	resp.Charged = uint64(n)
	resp.ClientQueries, resp.BudgetRemaining, resp.BudgetExact, resp.ExposureWarning = s.wireLedgerValues(bres)

	s.queryBatches.Add(1)
	s.queriesAnswered.Add(uint64(n))
	s.queryErrors.Add(errs)
	elapsed := time.Since(start)
	s.lat.Observe(elapsed)
	resp.ServeMicros = uint64(elapsed.Microseconds())
	st.out = resp.Append(st.out[:0])
	writeFrame(w, st.out)
}

// handleReconstructBinary answers one binary /reconstruct batch,
// mirroring handleReconstruct. Frequencies are returned dense by original
// sensitive-value code; labels are recoverable from /publications?domains=1.
func (s *Server) handleReconstructBinary(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := binPool.Get().(*binScratch)
	defer binPool.Put(st)
	if !s.readFrame(w, r, st) {
		return
	}
	if err := st.rreq.Decode(st.body); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad binary frame: %w", err))
		return
	}
	n := len(st.rreq.Subsets)
	if n == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("empty subset batch"))
		return
	}
	if n > s.cfg.MaxBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("batch of %d exceeds the limit %d", n, s.cfg.MaxBatch))
		return
	}
	pub, ok := s.resolvePublication(w, string(st.rreq.ID), st.rreq.Wait, true)
	if !ok {
		return
	}
	// Reconstruction charges subsets × sensitive-domain size, and is the
	// first class shed when the client nears quota (graceful degradation).
	client := clientID(r, string(st.rreq.Client))
	charged := int64(n) * int64(pub.Marg.SADomain())
	bres, ok := s.chargeExposure(w, client, pub.ID, charged, budget.ClassReconstruct)
	if !ok {
		return
	}

	st.errs = resizeErrs(st.errs, n)
	par.Striped(n, s.cfg.QueryWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if st.errs[i] = pub.MapConds(st.rreq.Subsets[i]); st.errs[i] != nil {
				// Mirror the JSON path: a failed subset reaches the engine
				// as nil (answered as empty, overridden with the map error
				// below). The decoder refills Subsets next request.
				st.rreq.Subsets[i] = nil
			}
		}
	})
	sets := st.rreq.Subsets
	recs := pub.Eng.ReconstructBatch(sets, reconstruct.BatchOptions{
		Workers: s.cfg.QueryWorkers,
		Clamp:   st.rreq.Clamp,
	})

	st.cbuf = append(st.cbuf[:0], client...)
	resp := wire.ReconstructResp{ID: st.rreq.ID, Client: st.cbuf}
	st.results = st.results[:0]
	var errs uint64
	for i := range recs {
		rec := &recs[i]
		res := wire.RecResult{Size: int64(rec.Size), Freqs: rec.Freqs}
		switch {
		case st.errs[i] != nil:
			res = wire.RecResult{Err: []byte(st.errs[i].Error())}
		case rec.Err != nil:
			res = wire.RecResult{Err: []byte(rec.Err.Error())}
		}
		if res.Err != nil {
			errs++
		}
		st.results = append(st.results, res)
	}
	resp.Results = st.results
	resp.Charged = uint64(charged)
	resp.ClientQueries, resp.BudgetRemaining, resp.BudgetExact, resp.ExposureWarning = s.wireLedgerValues(bres)

	s.reconstructBatches.Add(1)
	s.reconstructions.Add(uint64(n))
	s.queryErrors.Add(errs)
	elapsed := time.Since(start)
	s.lat.Observe(elapsed)
	resp.ServeMicros = uint64(elapsed.Microseconds())
	st.out = resp.Append(st.out[:0])
	writeFrame(w, st.out)
}

// handleInsertBinary ingests one binary /insert batch, mirroring
// handleInsert. Records carry raw codes over the publication's original
// schema in schema order (incremental publications never generalize, so
// original and served schemas coincide); the handler validates every code
// against its attribute domain before touching the publisher, the same
// all-or-nothing admission the JSON path gets from label resolution.
// Inserts charge no exposure, so the response carries no ledger block.
func (s *Server) handleInsertBinary(w http.ResponseWriter, r *http.Request) {
	st := binPool.Get().(*binScratch)
	defer binPool.Put(st)
	if !s.readFrame(w, r, st) {
		return
	}
	if err := st.ireq.Decode(st.body); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad binary frame: %w", err))
		return
	}
	n := len(st.ireq.Records)
	if n == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("no records"))
		return
	}
	if n > s.cfg.MaxInsert {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("insert of %d exceeds the limit %d", n, s.cfg.MaxInsert))
		return
	}
	pub, ok := s.resolvePublication(w, string(st.ireq.ID), st.ireq.Wait, false)
	if !ok {
		return
	}
	e := s.reg.get(string(st.ireq.ID))
	if e.inc == nil {
		WriteError(w, http.StatusConflict, CodeNotIncremental,
			fmt.Errorf("publication %q was published with method %q; only incremental publications accept inserts", st.ireq.ID, pub.Req.Method))
		return
	}
	schema := pub.Orig
	if st.ireq.NAttrs != schema.NumAttrs() {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("records carry %d attributes, schema has %d", st.ireq.NAttrs, schema.NumAttrs()))
		return
	}
	naIdx := schema.NAIndices()
	if cap(st.ikarena) < n*len(naIdx) {
		st.ikarena = make([]uint16, n*len(naIdx))
	}
	st.ikarena = st.ikarena[:0]
	st.ikeys = st.ikeys[:0]
	st.isas = st.isas[:0]
	for ri, rec := range st.ireq.Records {
		for _, ai := range naIdx {
			code := rec[ai]
			if int(code) >= schema.Attrs[ai].Domain() {
				WriteError(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("record %d: attribute %q code %d out of domain [0,%d)", ri, schema.Attrs[ai].Name, code, schema.Attrs[ai].Domain()))
				return
			}
			st.ikarena = append(st.ikarena, code)
		}
		off := len(st.ikarena) - len(naIdx)
		st.ikeys = append(st.ikeys, st.ikarena[off:len(st.ikarena):len(st.ikarena)])
		sa := rec[schema.SA]
		if int(sa) >= schema.SADomain() {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("record %d: sensitive code %d out of domain [0,%d)", ri, sa, schema.SADomain()))
			return
		}
		st.isas = append(st.isas, sa)
	}

	resp, err := s.applyInsert(e, st.ikeys, st.isas)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	s.inserts.Add(uint64(resp.Inserted))
	s.absorbed.Add(uint64(resp.Absorbed))

	st.cbuf = append(st.cbuf[:0], clientID(r, string(st.ireq.Client))...)
	wresp := wire.InsertResp{
		ID:           st.ireq.ID,
		Client:       st.cbuf,
		Inserted:     uint32(resp.Inserted),
		Trials:       uint32(resp.Trials),
		Absorbed:     uint32(resp.Absorbed),
		TotalRecords: uint64(resp.TotalRecords),
	}
	st.out = wresp.Append(st.out[:0])
	writeFrame(w, st.out)
}

// wireLedgerValues is ledgerValues for the binary framing: unsigned fields,
// with the all-ones sentinel standing in for disabled enforcement.
func (s *Server) wireLedgerValues(res budget.Result) (total, remaining uint64, exact, warn bool) {
	t, rem, exact, warn := s.ledgerValues(res)
	remaining = uint64(rem)
	if rem < 0 {
		remaining = wire.UnlimitedBudget
	}
	return uint64(t), remaining, exact, warn
}

func resizeQueries(dst []query.Query, n int) []query.Query {
	if cap(dst) < n {
		return make([]query.Query, n)
	}
	return dst[:n]
}

func resizeErrs(dst []error, n int) []error {
	if cap(dst) < n {
		return make([]error, n)
	}
	return dst[:n]
}
