package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// checkFastDecode is the decoder's differential property: on body the fast
// decoder either bails out, leaving dst zero, or fills exactly what the
// encoding/json Decoder fills.
func checkFastDecode[T any](t *testing.T, body []byte, fast func(*binScratch, *T) bool) bool {
	t.Helper()
	st := new(binScratch)
	st.body = append(st.body, body...)
	var got, zero T
	if !fast(st, &got) {
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("fast decoder bailed out on %q but left %+v behind", body, got)
		}
		return false
	}
	var want T
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("fast decoder accepted %q, which encoding/json rejects: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast decoder disagrees with encoding/json on %q:\n got %#v\nwant %#v", body, got, want)
	}
	return true
}

func fastQuery(st *binScratch, req *queryRequest) bool { return st.decodeQueryJSON(req) }

func fastReconstruct(st *binScratch, req *reconstructRequest) bool {
	return st.decodeReconstructJSON(req)
}

// checkServed sends body through the real handler: the answer must be a
// success that re-marshals to the very bytes served, or a typed ErrorBody
// below 500 — never a 500 or a panic.
func checkServed[T any](t *testing.T, h http.Handler, path string, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	got := rec.Body.Bytes()
	if rec.Code >= 500 {
		t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, got)
	}
	if rec.Code != http.StatusOK {
		var eb ErrorBody
		if err := json.Unmarshal(got, &eb); err != nil || eb.Code == "" || eb.Message == "" {
			t.Fatalf("%s %q: status %d without a typed error body: %s", path, body, rec.Code, got)
		}
		return
	}
	var resp T
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("%s %q: undecodable success body: %v", path, body, err)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s %q: served body is not json.Marshal's rendering:\n got %s\nwant %s", path, body, got, want)
	}
}

// fuzzHandler serves the medical test publication (id pub-75a0919dbaa9,
// the id the seed corpora use) with budget enforcement off.
func fuzzHandler(f *testing.F) http.Handler {
	s := New(Config{BudgetQuota: -1})
	if _, _, err := s.Publish(medicalRequest(), true); err != nil {
		f.Fatal(err)
	}
	return s.Handler()
}

func FuzzQueryJSONBody(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFastDecode(t, body, fastQuery)
		checkServed[QueryResponse](t, h, "/query", body)
	})
}

func FuzzReconstructJSONBody(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFastDecode(t, body, fastReconstruct)
		checkServed[ReconstructResponse](t, h, "/reconstruct", body)
	})
}

// TestFastDecodeShapes pins which bodies take the fast path: the canonical
// shape, whatever its whitespace, and nothing else.
func TestFastDecodeShapes(t *testing.T) {
	const q = `{"conds":[{"attr":"Job","value":"Doctor"}],"sa":"Flu"}`
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"id":"p","queries":[` + q + `]}`, true},
		{`{"queries":[` + q + `,{}],"wait":false,"client":"c","id":"p"}`, true},
		{" {\n \"id\" : \"p\" ,\t\"queries\" : [ " + q + " ] }\r\n", true},
		{`{"id":"p","queries":[],"wait":true}`, true},
		{`{"id":"p","queries":[{"conds":[],"sa":"Flu"}]}`, true},
		{`{"id":"ünï","queries":[{"sa":"Flu"}]}`, true},
		{`{"id":"p","queries":[{"sa":"\u003c=50K"},{"sa":"\u003e50K"}]}`, true},
		{`{"id":"\u0026a\u003cb\u003e","client":"x\u0026y","queries":[]}`, true},
		{`{"id":"p","queries":[{"sa":"\u003C=50K"}]}`, false},
		{`{"id":"p","queries":[{"sa":"\u003"}]}`, false},
		{`{"id":"p","queries":[{"sa":"\u003c\u0061"}]}`, false},
		{"{\"id\":\"\xff\\u003c\"}", false},
		{`{}`, true},
		{`{"ID":"p","queries":[` + q + `]}`, false},
		{`{"id":"p","queries":[` + q + `],"extra":1}`, false},
		{`{"id":"p","id":"q"}`, false},
		{`{"id":"p\u0071"}`, false},
		{`{"id":"p\\"}`, false},
		{"{\"id\":\"p\x01\"}", false},
		{"{\"id\":\"\xff\"}", false},
		{`{"id":null}`, false},
		{`{"id":"p","queries":null}`, false},
		{`{"id":"p","queries":[null]}`, false},
		{`{"id":"p","queries":[{"conds":null}]}`, false},
		{`{"id":"p","wait":1}`, false},
		{`{"id":"p"} {}`, false},
		{`{"id":"p"}x`, false},
		{`{"id":"p",}`, false},
		{`{"id":"p"`, false},
		{`null`, false},
		{``, false},
	} {
		if got := checkFastDecode(t, []byte(tc.body), fastQuery); got != tc.fast {
			t.Errorf("%q: fast path %v, want %v", tc.body, got, tc.fast)
		}
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"id":"p","subsets":[[{"attr":"Job","value":"Doctor"}],[]],"clamp":true,"wait":false}`, true},
		{`{"id":"p","subsets":[]}`, true},
		{`{"id":"p","subsets":[[{"attr":"Income","value":"\u003c=50K"}]]}`, true},
		{`{"id":"p","subsets":[null]}`, false},
		{`{"id":"p","clamp":"yes"}`, false},
		{`{"id":"p","Clamp":true}`, false},
	} {
		if got := checkFastDecode(t, []byte(tc.body), fastReconstruct); got != tc.fast {
			t.Errorf("%q: fast path %v, want %v", tc.body, got, tc.fast)
		}
	}
}

// TestBuiltinLabelsTakeFastPath pins that json.Marshal renders requests
// over every label of every built-in dataset in the fast decoder's shape —
// ADULT's "<=50K" and ">50K", which it escapes, included — so the repo's
// own Go clients never pay for the encoding/json fallback.
func TestBuiltinLabelsTakeFastPath(t *testing.T) {
	for name, schema := range map[string]*dataset.Schema{
		"medical":            datagen.MedicalSchema(),
		"medical-with-color": datagen.MedicalWithColorSchema(),
		"census":             datagen.CensusSchema(),
		"adult":              datagen.AdultSchema(),
	} {
		sa := schema.SAAttr().Values
		qreq := queryRequest{ID: name, Client: name}
		rreq := reconstructRequest{ID: name, Client: name}
		var first []CondJSON
		for i, a := range schema.Attrs {
			if i == schema.SA {
				continue
			}
			for _, v := range a.Values {
				conds := []CondJSON{{Attr: a.Name, Value: v}}
				qreq.Queries = append(qreq.Queries, QueryJSON{Conds: conds, SA: sa[0]})
				rreq.Subsets = append(rreq.Subsets, conds)
				if first == nil {
					first = conds
				}
			}
		}
		for _, v := range sa {
			qreq.Queries = append(qreq.Queries, QueryJSON{Conds: first, SA: v})
		}
		qbody, err := json.Marshal(qreq)
		if err != nil {
			t.Fatal(err)
		}
		rbody, err := json.Marshal(rreq)
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastDecode(t, qbody, fastQuery) || !checkFastDecode(t, rbody, fastReconstruct) {
			t.Errorf("%s: json.Marshal's requests over its labels take the fallback", name)
		}
	}
}

// encoderEdgeFloats are the float64 values whose encoding/json rendering
// has a special case: the 'e' cutoffs, signed zero, integers beyond 2^53.
var encoderEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, -1e21, 1e20,
	123456789012345678, 1 << 53, 1<<53 + 2, 0.1, -2.5, 5e-324, math.MaxFloat64, 1e-300,
}

// encoderEdgeStrings exercise every escape encoding/json applies.
var encoderEdgeStrings = []string{
	"", "plain", `<script>&"\`, "tab\tnl\nret\rbs\bff\f", "ctl\x00\x01\x1f\x7f",
	"sep\u2028and\u2029", "bad\xff\xfeutf8\xc3", "ünïcödé ✓ 𝄞",
}

func TestJSONEncoderMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return encoderEdgeFloats[rng.Intn(len(encoderEdgeFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	pickStr := func() string { return encoderEdgeStrings[rng.Intn(len(encoderEdgeStrings))] }
	// The label set repeats "Flu" to pin map semantics: the highest code
	// wins.
	labels := append([]string{"Flu", "flu", "Flu", "Z", "a"}, encoderEdgeStrings...)
	keys := freqKeysOf(labels)

	for iter := 0; iter < 300; iter++ {
		ledger := func() (int64, int64, int64, bool, bool, int64) {
			return rng.Int63n(1e6), rng.Int63(), rng.Int63n(1e9) - 1, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Int63n(1e7)
		}
		q := QueryResponse{ID: pickStr(), Client: pickStr()}
		q.Charged, q.ClientQueries, q.BudgetRemaining, q.BudgetExact, q.ExposureWarning, q.ServeMicros = ledger()
		switch iter {
		case 0:
		case 1:
			q.Answers = []QueryAnswer{}
		default:
			q.Answers = make([]QueryAnswer, rng.Intn(20))
			for i := range q.Answers {
				if rng.Intn(5) == 0 {
					q.Answers[i] = QueryAnswer{Error: pickStr()}
					continue
				}
				q.Answers[i] = QueryAnswer{Count: rng.Intn(1 << 20), Estimate: pick()}
			}
		}
		want, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendQueryResponse(nil, &q)
		if err != nil || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("query response %d (err %v):\n got %s\nwant %s", iter, err, got, want)
		}

		// The encoder renders the engine's results; want is the response
		// built from them the way clients decode it, with label-keyed maps.
		rr := ReconstructResponse{ID: pickStr(), Client: pickStr(), Results: []Reconstruction{}}
		rr.Charged, rr.ClientQueries, rr.BudgetRemaining, rr.BudgetExact, rr.ExposureWarning, rr.ServeMicros = ledger()
		var recs []reconstruct.Reconstruction
		if iter > 0 {
			recs = make([]reconstruct.Reconstruction, rng.Intn(12))
			rr.Results = make([]Reconstruction, len(recs))
			for i := range recs {
				switch rng.Intn(5) {
				case 0:
					msg := pickStr()
					recs[i] = reconstruct.Reconstruction{Size: rng.Intn(100), Err: errors.New(msg)}
					rr.Results[i] = Reconstruction{Error: msg}
					continue
				case 1:
					recs[i] = reconstruct.Reconstruction{Size: rng.Intn(100)}
					if rng.Intn(2) == 0 {
						recs[i].Freqs = []float64{}
					}
					rr.Results[i] = Reconstruction{Size: recs[i].Size}
					continue
				}
				f := make([]float64, len(labels))
				m := make(map[string]float64, len(f))
				for v := range f {
					f[v] = pick()
					m[labels[v]] = f[v]
				}
				recs[i] = reconstruct.Reconstruction{Size: rng.Intn(1 << 16), Freqs: f}
				rr.Results[i] = Reconstruction{Size: recs[i].Size, Freqs: m}
			}
		}
		want, err = json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		got, err = appendReconstructResponse(nil, rr.ID, recs, keys, ledgerFields{rr.Client, rr.Charged,
			rr.ClientQueries, rr.BudgetRemaining, rr.BudgetExact, rr.ExposureWarning, rr.ServeMicros})
		if err != nil || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("reconstruct response %d (err %v):\n got %s\nwant %s", iter, err, got, want)
		}
	}

	// Values json.Marshal refuses fail the encoder too.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := QueryResponse{Answers: []QueryAnswer{{Estimate: bad}}}
		if _, err := json.Marshal(q); err == nil {
			t.Fatal("json.Marshal accepted", bad)
		}
		if _, err := appendQueryResponse(nil, &q); err == nil {
			t.Fatalf("encoder accepted estimate %v", bad)
		}
		recs := []reconstruct.Reconstruction{{Size: 1, Freqs: []float64{bad}}}
		if _, err := appendReconstructResponse(nil, "", recs, freqKeysOf([]string{"x"}), ledgerFields{}); err == nil {
			t.Fatalf("encoder accepted frequency %v", bad)
		}
	}
}

// canonicalQueryBody is a 5,000-query /query body over the medical
// publication's labels, as json.Marshal renders it.
func canonicalQueryBody(t testing.TB, id string) []byte {
	t.Helper()
	jobs := []string{"Engineer", "Teacher", "Doctor", "Lawyer", "Clerk"}
	diseases := []string{"Flu", "Diabetes", "Hypertension", "Asthma", "HIV"}
	req := queryRequest{ID: id, Client: "alloc-client"}
	for i := 0; i < 5000; i++ {
		conds := []CondJSON{{Attr: "Job", Value: jobs[i%len(jobs)]}}
		if i%2 == 0 {
			conds = append(conds, CondJSON{Attr: "Gender", Value: []string{"Male", "Female"}[i/2%2]})
		}
		req.Queries = append(req.Queries, QueryJSON{Conds: conds, SA: diseases[i%len(diseases)]})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJSONDecodeAllocs is the allocation ceiling of the fast decoder on a
// canonical 5,000-query body with a warm scratch: the client id is the one
// string a batch allocates, since every label comes from the intern table.
func TestJSONDecodeAllocs(t *testing.T) {
	const ceiling = 1
	body := canonicalQueryBody(t, "pub-75a0919dbaa9")
	if !checkFastDecode(t, body, fastQuery) {
		t.Fatal("canonical body took the fallback")
	}
	st := new(binScratch)
	st.body = body
	var req queryRequest
	decode := func() {
		req = queryRequest{}
		if !st.decodeQueryJSON(&req) || len(req.Queries) != 5000 {
			t.Fatal("canonical body took the fallback")
		}
	}
	decode()
	allocs := testing.AllocsPerRun(20, decode)
	t.Logf("%.1f allocs per canonical 5,000-query body", allocs)
	if allocs > ceiling {
		t.Fatalf("decoding a canonical 5,000-query body: %.1f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestJSONBodyTooLarge pins the 413 parity of JSON bodies with binary
// frames: an over-limit body is a typed too_large on every POST endpoint.
func TestJSONBodyTooLarge(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, path := range []string{"/query", "/reconstruct", "/insert", "/publish", "/refresh", "/audit", "/restore"} {
		body := io.MultiReader(strings.NewReader(`{"id":"p","client":"`),
			io.LimitReader(repeatReader('x'), MaxBodyBytes))
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: undecodable error body: %v", path, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || eb.Code != CodeTooLarge {
			t.Fatalf("%s: got %d %q, want 413 %q", path, rec.Code, eb.Code, CodeTooLarge)
		}
	}
}

// repeatReader yields one byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestResponseLayout pins the response writers: hot-path and ack bodies
// are compact, /statsz and /publications stay indented, and a value that
// cannot be marshalled is a typed 500 instead of an empty 200.
func TestResponseLayout(t *testing.T) {
	s, ts := startServer(t, Config{})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, path := range []string{"/statsz", "/publications", "/publications?id=" + e.ID()} {
		if body := get(path); !bytes.Contains(body, []byte("\n  ")) {
			t.Errorf("%s is not indented: %s", path, body)
		}
	}
	postBody := func(path, body string) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range [][2]string{
		{"/query", `{"id":"` + e.ID() + `","queries":[{"conds":[{"attr":"Job","value":"Doctor"}],"sa":"Flu"}]}`},
		{"/reconstruct", `{"id":"` + e.ID() + `","subsets":[[{"attr":"Job","value":"Doctor"}]]}`},
		{"/query", `{"id":"nope","queries":[{"sa":"Flu"}]}`},
		{"/digest", `{"id":"` + e.ID() + `"}`},
	} {
		body := postBody(tc[0], tc[1])
		if bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("}\n")) {
			t.Errorf("%s body is not one compact line: %s", tc[0], body)
		}
	}

	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, math.NaN())
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Code != CodeInternal {
		t.Fatalf("unmarshalable value: got %d %s", rec.Code, rec.Body.Bytes())
	}
}
