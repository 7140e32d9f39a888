package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// This file holds what the batch endpoints — POST /query, /reconstruct and
// /insert — share whatever the request encoding: the pooled scratch a
// request is served out of, the body reader, and the codec edges of each
// pipeline. A handler runs its stages once; only three edges branch on
// the encoding:
//
//   - decode: the internal/wire frame (Content-Type
//     application/x-rp-binary), or the JSON body through the scanner of
//     jsoncodec.go with its encoding/json fallback;
//   - resolve: binary codes mapped in place (Publication.MapConds/MapSA),
//     or JSON labels resolved (Publication.Resolve/ResolveConds, with the
//     generalized-label fallback);
//   - encode: a wire frame, or JSON byte-identical to json.Marshal.
//
// Failures are always the JSON ErrorBody envelope, whatever the request
// encoding, so the fleet's error taxonomy is shared. The binary steady
// state allocates almost nothing: body, decoded frame, resolved queries,
// answers and the response frame all live in pooled scratch.

// binScratch is one request's pooled working set.
type binScratch struct {
	body []byte // raw request body; decoded views alias it
	out  []byte // encoded response
	cbuf []byte // resolved client id bytes

	req     wire.QueryReq
	rreq    wire.ReconstructReq
	ireq    wire.InsertReq
	qs      []query.Query
	sets    [][]query.Cond
	errs    []error
	answers []query.Answer
	wans    []wire.Answer
	results []wire.RecResult

	// Insert-path scratch: JSON records resolved to rows of codes over one
	// arena, then the admitted key views over another plus the aligned
	// sensitive codes, refilled per request.
	irows   [][]uint16
	icodes  []uint16
	ikeys   [][]uint16
	ikarena []uint16
	isas    []uint16

	// JSON-path scratch (jsoncodec.go): the decoded requests, the scanner
	// with its unescaping buffer, decoded queries and condition sets over
	// one condition arena, the answers handed to the encoder, and the label
	// intern table.
	jq       queryRequest
	jr       reconstructRequest
	ji       insertRequest
	scan     jsonScanner
	jqueries []QueryJSON
	jconds   []CondJSON
	jspans   []condSpan
	jsubsets [][]CondJSON
	janswers []QueryAnswer
	labels   labelTable
}

var binPool = sync.Pool{New: func() any { return new(binScratch) }}

// isBinary reports whether a request negotiated the binary framing.
func isBinary(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.ContentType
}

// MaxBodyBytes bounds request bodies on every endpoint, the fleet
// router's included (a 100K-record insert of wide labels fits
// comfortably).
const MaxBodyBytes = 64 << 20

// ReadBody reads the body of a POST into buf, reusing its capacity, and
// returns it. A false return means the typed rejection is already
// written: 405 for another method, 413 too_large for a body over
// MaxBodyBytes, 400 for any other read failure.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use POST"))
		return buf, false
	}
	buf = buf[:0]
	lr := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
					fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes))
				return buf, false
			}
			WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("reading body: %v", err))
			return buf, false
		}
	}
}

// ReadJSON reads a POST body with ReadBody and decodes it into dst with
// encoding/json. A false return means the typed rejection is already
// written.
func ReadJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := ReadBody(w, r, nil)
	if !ok {
		return false
	}
	if err := unmarshalBody(body, dst); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return false
	}
	return true
}

// unmarshalBody decodes a JSON body with encoding/json's Decoder, which
// tolerates trailing data after the first value.
func unmarshalBody(body []byte, dst any) error {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// batchHead is the encoding-neutral head of a decoded /query,
// /reconstruct or /insert request — what the shared stages read of it,
// whichever decoder ran. n counts the batch's queries, subsets or records.
type batchHead struct {
	id, client  string
	wait, clamp bool
	n           int
}

// badFrame is the 400 message of a wire frame that does not decode.
func badFrame(err error) error { return fmt.Errorf("bad binary frame: %w", err) }

// decodeQuery is the decode edge of POST /query.
func (st *binScratch) decodeQuery(bin bool) (batchHead, error) {
	if bin {
		if err := st.req.Decode(st.body); err != nil {
			return batchHead{}, badFrame(err)
		}
		m := &st.req
		return batchHead{id: string(m.ID), client: string(m.Client), wait: m.Wait, n: len(m.Queries)}, nil
	}
	q := &st.jq
	*q = queryRequest{}
	if !st.decodeQueryJSON(q) {
		if err := unmarshalBody(st.body, q); err != nil {
			return batchHead{}, err
		}
	}
	return batchHead{id: q.ID, client: q.Client, wait: q.Wait, n: len(q.Queries)}, nil
}

// decodeReconstruct is the decode edge of POST /reconstruct.
func (st *binScratch) decodeReconstruct(bin bool) (batchHead, error) {
	if bin {
		if err := st.rreq.Decode(st.body); err != nil {
			return batchHead{}, badFrame(err)
		}
		m := &st.rreq
		return batchHead{id: string(m.ID), client: string(m.Client), wait: m.Wait, clamp: m.Clamp, n: len(m.Subsets)}, nil
	}
	q := &st.jr
	*q = reconstructRequest{}
	if !st.decodeReconstructJSON(q) {
		if err := unmarshalBody(st.body, q); err != nil {
			return batchHead{}, err
		}
	}
	return batchHead{id: q.ID, client: q.Client, wait: q.Wait, clamp: q.Clamp, n: len(q.Subsets)}, nil
}

// decodeInsert is the decode edge of POST /insert. JSON records are
// label maps, which the scanner does not take: encoding/json decodes them.
func (st *binScratch) decodeInsert(bin bool) (batchHead, error) {
	if bin {
		if err := st.ireq.Decode(st.body); err != nil {
			return batchHead{}, badFrame(err)
		}
		m := &st.ireq
		return batchHead{id: string(m.ID), client: string(m.Client), wait: m.Wait, n: len(m.Records)}, nil
	}
	q := &st.ji
	*q = insertRequest{}
	if err := unmarshalBody(st.body, q); err != nil {
		return batchHead{}, err
	}
	return batchHead{id: q.ID, wait: q.Wait, n: len(q.Records)}, nil
}

// checkBatch is the admission every batch endpoint starts with: at least
// one item and at most limit. A false return means the rejection is
// already written.
func checkBatch(w http.ResponseWriter, n, limit int, empty, what string) bool {
	if n == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, errors.New(empty))
		return false
	}
	if n > limit {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("%s of %d exceeds the limit %d", what, n, limit))
		return false
	}
	return true
}

// resolveQueries is the resolve edge of POST /query for the stripe
// [lo, hi) of st.qs: binary codes mapped in place, or JSON labels
// resolved. A query that fails is left zero with its error in st.errs.
func (st *binScratch) resolveQueries(pub *Publication, bin bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		if !bin {
			st.qs[i], st.errs[i] = pub.Resolve(st.jq.Queries[i])
			continue
		}
		q := &st.req.Queries[i]
		err := pub.MapConds(q.Conds)
		if err == nil {
			err = pub.MapSA(q.SA)
		}
		st.qs[i], st.errs[i] = query.Query{Conds: q.Conds, SA: q.SA}, err
		if err != nil {
			st.qs[i] = query.Query{}
		}
	}
}

// resolveSubsets is the resolve edge of POST /reconstruct for the stripe
// [lo, hi) of st.sets. A subset that fails reaches the engine as nil
// (answered as empty, then replaced by the resolution error).
func (st *binScratch) resolveSubsets(pub *Publication, bin bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		if !bin {
			st.sets[i], st.errs[i] = pub.ResolveConds(st.jr.Subsets[i])
			continue
		}
		st.sets[i], st.errs[i] = st.rreq.Subsets[i], pub.MapConds(st.rreq.Subsets[i])
		if st.errs[i] != nil {
			st.sets[i] = nil
		}
	}
}

// insertRows is the resolve edge of POST /insert: the records as rows of
// original codes in schema order — the frame's own rows, or the JSON
// labels resolved against the schema, non-sensitive attributes first.
func (st *binScratch) insertRows(schema *dataset.Schema, bin bool) ([][]uint16, error) {
	width := schema.NumAttrs()
	if bin {
		if st.ireq.NAttrs != width {
			return nil, fmt.Errorf("records carry %d attributes, schema has %d", st.ireq.NAttrs, width)
		}
		return st.ireq.Records, nil
	}
	naIdx := schema.NAIndices()
	st.icodes = resize(st.icodes, len(st.ji.Records)*width)
	st.irows = st.irows[:0]
	for ri, rec := range st.ji.Records {
		row := st.icodes[ri*width : (ri+1)*width : (ri+1)*width]
		for k := 0; k <= len(naIdx); k++ {
			ai, what := schema.SA, "sensitive attribute"
			if k < len(naIdx) {
				ai, what = naIdx[k], "attribute"
			}
			label, ok := rec[schema.Attrs[ai].Name]
			if !ok {
				return nil, fmt.Errorf("record %d: missing %s %q", ri, what, schema.Attrs[ai].Name)
			}
			code, err := schema.Attrs[ai].Code(label)
			if err != nil {
				return nil, fmt.Errorf("record %d: %v", ri, err)
			}
			row[ai] = code
		}
		st.irows = append(st.irows, row)
	}
	return st.irows, nil
}

// admitRecords is the code-domain admission of POST /insert: every code
// of every row is checked against its attribute's domain before the
// publisher sees a single record (all or nothing), and the rows are split
// into non-sensitive keys (st.ikeys) and sensitive codes (st.isas).
func (st *binScratch) admitRecords(schema *dataset.Schema, rows [][]uint16) error {
	naIdx := schema.NAIndices()
	st.ikarena = resize(st.ikarena, len(rows)*len(naIdx))[:0]
	st.ikeys = st.ikeys[:0]
	st.isas = st.isas[:0]
	for ri, rec := range rows {
		for _, ai := range naIdx {
			code := rec[ai]
			if int(code) >= schema.Attrs[ai].Domain() {
				return fmt.Errorf("record %d: attribute %q code %d out of domain [0,%d)", ri, schema.Attrs[ai].Name, code, schema.Attrs[ai].Domain())
			}
			st.ikarena = append(st.ikarena, code)
		}
		off := len(st.ikarena) - len(naIdx)
		st.ikeys = append(st.ikeys, st.ikarena[off:len(st.ikarena):len(st.ikarena)])
		sa := rec[schema.SA]
		if int(sa) >= schema.SADomain() {
			return fmt.Errorf("record %d: sensitive code %d out of domain [0,%d)", ri, sa, schema.SADomain())
		}
		st.isas = append(st.isas, sa)
	}
	return nil
}

// wireAnswer and jsonAnswer render one answer for the /query encoders.
func wireAnswer(a *query.Answer) wire.Answer {
	if a.Err != nil {
		return wire.Answer{Err: []byte(a.Err.Error())}
	}
	return wire.Answer{Count: int64(a.Count), Estimate: a.Estimate}
}

func jsonAnswer(a *query.Answer) QueryAnswer {
	if a.Err != nil {
		return QueryAnswer{Error: a.Err.Error()}
	}
	return QueryAnswer{Count: a.Count, Estimate: a.Estimate}
}

// encodeQuery is the encode edge of POST /query: the rendered answers as
// a wire frame, or as the bytes json.Marshal renders for a QueryResponse.
func (st *binScratch) encodeQuery(w http.ResponseWriter, bin bool, id string, l ledgerFields) {
	if bin {
		st.cbuf = append(st.cbuf[:0], l.client...)
		resp := wire.QueryResp{ID: st.req.ID, Client: st.cbuf, Ledger: l.wireLedger(),
			ServeMicros: uint64(l.serveMicros), Answers: st.wans}
		st.out = resp.Append(st.out[:0])
		writeFrame(w, st.out)
		return
	}
	out := QueryResponse{ID: id, Answers: st.janswers, Client: l.client, Charged: l.charged,
		ClientQueries: l.clientQueries, BudgetRemaining: l.remaining, BudgetExact: l.exact,
		ExposureWarning: l.warn, ServeMicros: l.serveMicros}
	var err error
	st.out, err = appendQueryResponse(st.out[:0], &out)
	writeEncoded(w, http.StatusOK, st.out, err)
}

// encodeReconstruct is the encode edge of POST /reconstruct: recs as a
// wire frame, with frequencies dense by original sensitive code (labels
// are recoverable from /publications?domains=1), or as JSON keyed by label.
func (st *binScratch) encodeReconstruct(w http.ResponseWriter, bin bool, pub *Publication, recs []reconstruct.Reconstruction, l ledgerFields) {
	if bin {
		st.results = st.results[:0]
		for i := range recs {
			rec := &recs[i]
			if rec.Err != nil {
				st.results = append(st.results, wire.RecResult{Err: []byte(rec.Err.Error())})
				continue
			}
			st.results = append(st.results, wire.RecResult{Size: int64(rec.Size), Freqs: rec.Freqs})
		}
		st.cbuf = append(st.cbuf[:0], l.client...)
		resp := wire.ReconstructResp{ID: st.rreq.ID, Client: st.cbuf, Ledger: l.wireLedger(),
			ServeMicros: uint64(l.serveMicros), Results: st.results}
		st.out = resp.Append(st.out[:0])
		writeFrame(w, st.out)
		return
	}
	var err error
	st.out, err = appendReconstructResponse(st.out[:0], pub.ID, recs, pub.freqKeys, l)
	writeEncoded(w, http.StatusOK, st.out, err)
}

// encodeInsert is the encode edge of POST /insert. Inserts charge no
// exposure, so neither encoding carries a ledger; the frame echoes the
// resolved client, the JSON body does not.
func (st *binScratch) encodeInsert(w http.ResponseWriter, bin bool, client string, resp insertResponse) {
	if !bin {
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	st.cbuf = append(st.cbuf[:0], client...)
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

// writeFrame emits an encoded success frame.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// wireLedger is the ledger in the binary framing: unsigned fields, with
// the all-ones sentinel standing in for disabled enforcement.
func (l *ledgerFields) wireLedger() wire.Ledger {
	remaining := uint64(l.remaining)
	if l.remaining < 0 {
		remaining = wire.UnlimitedBudget
	}
	return wire.Ledger{Charged: uint64(l.charged), ClientQueries: uint64(l.clientQueries),
		BudgetRemaining: remaining, ExposureWarning: l.warn, BudgetExact: l.exact}
}

// resize returns dst with length n, reusing its backing array when it is
// large enough.
func resize[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}
