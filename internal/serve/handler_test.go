package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/reconpriv/reconpriv/internal/wire"
)

// handlerBatches builds n-item /query and /reconstruct bodies over the
// medical publication, once as binary frames and once as JSON labels.
func handlerBatches(t testing.TB, pub *Publication, n int) (qbin, qjson, rbin, rjson []byte) {
	t.Helper()
	schema := pub.Orig
	breq := wire.QueryReq{ID: []byte(pub.ID), Client: []byte("alloc-client")}
	jreq := queryRequest{ID: pub.ID, Client: "alloc-client"}
	brec := wire.ReconstructReq{ID: []byte(pub.ID), Client: []byte("alloc-client")}
	jrec := reconstructRequest{ID: pub.ID, Client: "alloc-client"}
	for i := 0; i < n; i++ {
		var conds []wire.Cond
		var jconds []CondJSON
		for a := 0; a < schema.NumAttrs(); a++ {
			if a == schema.SA {
				continue
			}
			v := uint16((i + a) % schema.Attrs[a].Domain())
			conds = append(conds, wire.Cond{Attr: a, Value: v})
			jconds = append(jconds, CondJSON{Attr: schema.Attrs[a].Name, Value: schema.Attrs[a].Label(v)})
		}
		sa := uint16(i % schema.SADomain())
		breq.Queries = append(breq.Queries, wire.Query{SA: sa, Conds: conds})
		jreq.Queries = append(jreq.Queries, QueryJSON{Conds: jconds, SA: schema.SAAttr().Label(sa)})
		brec.Subsets = append(brec.Subsets, conds)
		jrec.Subsets = append(jrec.Subsets, jconds)
	}
	var err error
	if qjson, err = json.Marshal(jreq); err != nil {
		t.Fatal(err)
	}
	if rjson, err = json.Marshal(jrec); err != nil {
		t.Fatal(err)
	}
	return breq.Append(nil), qjson, brec.Append(nil), rjson
}

// TestHandlerAllocs is the allocation ceiling of one 1,000-item batch
// served through Handler().ServeHTTP with a recorder, budget off; the
// ceilings were measured on Go 1.24 and include about 13 allocations for
// the request and the recorder. Binary /query is flat in the batch size;
// every other row pays about one allocation per item (a resolved condition
// list for JSON labels, a frequency vector per reconstruction). A pipeline
// stage that allocates per item — a closure per query, say — breaks the
// binary ceiling.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates")
	}
	const n = 1000
	s := New(Config{BudgetQuota: -1, QueryWorkers: 2})
	pub := publishMedical(t, s)
	h := s.Handler()
	qbin, qjson, rbin, rjson := handlerBatches(t, pub, n)
	for _, tc := range []struct {
		name, path, ctype string
		body              []byte
		ceiling           float64
	}{
		{"query/binary", "/query", wire.ContentType, qbin, 37},
		{"query/json", "/query", "application/json", qjson, 1041},
		{"reconstruct/binary", "/reconstruct", wire.ContentType, rbin, 1040},
		{"reconstruct/json", "/reconstruct", "application/json", rjson, 2042},
	} {
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.ctype)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
			}
		}
		serve()
		allocs := testing.AllocsPerRun(20, serve)
		t.Logf("%s: %.1f allocs per %d-item batch", tc.name, allocs, n)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.1f allocs per %d-item batch, ceiling %.0f", tc.name, allocs, n, tc.ceiling)
		}
	}
}

// paritySend serves one body through h in the given encoding and returns
// the status and the decoded typed error body.
func paritySend(t *testing.T, h http.Handler, path, ctype string, body []byte) (int, ErrorBody) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("%s (%s): status %d without a typed error body: %s", path, ctype, rec.Code, rec.Body.Bytes())
	}
	return rec.Code, eb
}

// TestEncodingParityRejections sends each logical rejection of /query,
// /reconstruct and /insert through both encodings: status, ErrorCode and
// message must agree. A bad insert value compares status and code only —
// the JSON message names the label, the binary one the code.
func TestEncodingParityRejections(t *testing.T) {
	s := New(Config{MaxBatch: 3, MaxInsert: 3, BudgetQuota: 2})
	h := s.Handler()
	ready := publishMedical(t, s)
	inc := publishIncremental(t, s, 600).ID()
	// An entry whose build never starts stays pending.
	pending, _, err := s.reg.getOrCreate("pub-pending", "pending", medicalRequest(), 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := ready.Orig
	na := schema.NAIndices()[0]

	// bodies renders n items of one logical request in both encodings; bad
	// ("na" or "sa") puts an out-of-domain value into every insert record.
	bodies := func(path, id string, n int, bad string) (js, bin []byte) {
		var jv any
		switch path {
		case "/query":
			jr := queryRequest{ID: id, Client: "parity", Queries: []QueryJSON{}}
			br := wire.QueryReq{ID: []byte(id), Client: []byte("parity")}
			for i := 0; i < n; i++ {
				jr.Queries = append(jr.Queries, QueryJSON{SA: schema.SAAttr().Label(0),
					Conds: []CondJSON{{Attr: schema.Attrs[na].Name, Value: schema.Attrs[na].Label(0)}}})
				br.Queries = append(br.Queries, wire.Query{Conds: []wire.Cond{{Attr: na}}})
			}
			jv, bin = jr, br.Append(nil)
		case "/reconstruct":
			jr := reconstructRequest{ID: id, Client: "parity", Subsets: [][]CondJSON{}}
			br := wire.ReconstructReq{ID: []byte(id), Client: []byte("parity")}
			for i := 0; i < n; i++ {
				jr.Subsets = append(jr.Subsets, []CondJSON{{Attr: schema.Attrs[na].Name, Value: schema.Attrs[na].Label(0)}})
				br.Subsets = append(br.Subsets, []wire.Cond{{Attr: na}})
			}
			jv, bin = jr, br.Append(nil)
		default:
			jr := insertRequest{ID: id, Records: []map[string]string{}}
			br := wire.InsertReq{ID: []byte(id), NAttrs: schema.NumAttrs()}
			for i := 0; i < n; i++ {
				rec := make(map[string]string)
				codes := make([]uint16, schema.NumAttrs())
				for a := range schema.Attrs {
					rec[schema.Attrs[a].Name] = schema.Attrs[a].Label(0)
				}
				switch bad {
				case "na":
					rec[schema.Attrs[na].Name], codes[na] = "no-such-value", uint16(schema.Attrs[na].Domain())
				case "sa":
					rec[schema.SAAttr().Name], codes[schema.SA] = "no-such-value", uint16(schema.SADomain())
				}
				jr.Records = append(jr.Records, rec)
				br.Records = append(br.Records, codes)
			}
			jv, bin = jr, br.Append(nil)
		}
		js, err := json.Marshal(jv)
		if err != nil {
			t.Fatal(err)
		}
		return js, bin
	}

	type rejection struct {
		name, id string
		n        int
		bad      string
		status   int
		code     ErrorCode
	}
	shared := []rejection{
		{"empty batch", ready.ID, 0, "", http.StatusBadRequest, CodeBadRequest},
		{"over the limit", ready.ID, 4, "", http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"unknown id", "pub-none", 1, "", http.StatusNotFound, CodeNotFound},
		{"still building", pending.ID(), 1, "", http.StatusConflict, CodeBuilding},
	}
	perPath := map[string][]rejection{
		"/query":       {{"budget exhausted", ready.ID, 3, "", http.StatusTooManyRequests, CodeBudgetExhausted}},
		"/reconstruct": {{"budget exhausted", ready.ID, 1, "", http.StatusTooManyRequests, CodeBudgetExhausted}},
		"/insert": {
			{"not incremental", ready.ID, 1, "", http.StatusConflict, CodeNotIncremental},
			{"bad sensitive value", inc, 1, "sa", http.StatusBadRequest, CodeBadRequest},
			{"bad public value", inc, 1, "na", http.StatusBadRequest, CodeBadRequest},
		},
	}
	for _, path := range []string{"/query", "/reconstruct", "/insert"} {
		for _, tc := range append(append([]rejection(nil), shared...), perPath[path]...) {
			js, bin := bodies(path, tc.id, tc.n, tc.bad)
			jStatus, jErr := paritySend(t, h, path, "application/json", js)
			bStatus, bErr := paritySend(t, h, path, wire.ContentType, bin)
			if jStatus != tc.status || jErr.Code != tc.code || bStatus != tc.status || bErr.Code != tc.code {
				t.Errorf("%s %s: json %d %q, binary %d %q, want %d %q", path, tc.name,
					jStatus, jErr.Code, bStatus, bErr.Code, tc.status, tc.code)
			}
			if tc.bad == "" && jErr.Message != bErr.Message {
				t.Errorf("%s %s: messages differ:\n json   %q\n binary %q", path, tc.name, jErr.Message, bErr.Message)
			}
		}
	}
}

// fuzzInsertHandler serves an incremental medical publication (id
// pub-19c0cd2de766, the id the seed corpus uses).
func fuzzInsertHandler(f *testing.F) http.Handler {
	s := New(Config{})
	req := medicalRequest()
	req.Method = MethodIncremental
	req.Size = 600
	if _, _, err := s.Publish(req, true); err != nil {
		f.Fatal(err)
	}
	return s.Handler()
}

// FuzzInsertJSONBody sends arbitrary bodies to the real JSON /insert
// handler: every answer is a success that re-marshals to the served bytes
// or a typed ErrorBody below 500, never a 500 or a panic.
func FuzzInsertJSONBody(f *testing.F) {
	h := fuzzInsertHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServed[insertResponse](t, h, "/insert", body)
	})
}
