package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// adultTarget serves the ADULT incremental publication with a small input
// set drawn for it.
func adultTarget(t *testing.T) (*serve.Server, *serve.Publication, *inputs) {
	t.Helper()
	srv := serve.New(serveConfig())
	e, _, err := srv.Publish(adultRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ingestShape()
	if err != nil {
		t.Fatal(err)
	}
	sh.queryBatches, sh.reconBatches, sh.insertBatches, sh.clients = 2, 2, 1, 4
	in, err := genInputs(3, sh)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.queries {
		if in.queries[i].want, err = wantAnswers(pub, in.queries[i].queries); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in.recons {
		if in.recons[i].want, err = wantRecons(pub, in.recons[i].sets); err != nil {
			t.Fatal(err)
		}
	}
	return srv, pub, in
}

func TestGatePassesServedAnswersInBothEncodings(t *testing.T) {
	srv, pub, in := adultTarget(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(ts.URL, pub.Orig.SAAttr())
	defer c.close()
	for _, binary := range []bool{true, false} {
		rep, err := c.query(&in.queries[0], binary, "gate")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswers(rep.answers, in.queries[0].want); err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		rep, err = c.reconstruct(&in.recons[0], binary, "gate")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRecons(rep.recons, in.recons[0].want); err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
	}
}

// corrupting serves the real handler but nudges one estimate of every
// binary /query response by one unit in the last place.
func corrupting(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var resp wire.QueryResp
		if r.URL.Path == "/query" && resp.Decode(body) == nil && len(resp.Answers) > 0 {
			a := &resp.Answers[len(resp.Answers)/2]
			a.Estimate = math.Nextafter(a.Estimate, math.Inf(1))
			body = resp.Append(nil)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		io.Copy(w, bytes.NewReader(body))
	})
}

func TestGateCatchesCorruptedAnswer(t *testing.T) {
	srv, pub, in := adultTarget(t)
	ts := httptest.NewServer(corrupting(srv.Handler()))
	defer ts.Close()
	c := newClient(ts.URL, pub.Orig.SAAttr())
	defer c.close()
	var tl tally
	analystOp(c, in, true, 0, &tl, nil, time.Time{})
	if tl.failed != 1 || tl.attempted != 1 {
		t.Fatalf("corrupted answer passed the gate: attempted %d, failed %d", tl.attempted, tl.failed)
	}
}

func TestGateComparesBits(t *testing.T) {
	_, _, in := adultTarget(t)
	want := in.queries[0].want
	got := append(want[:0:0], want...)
	if err := checkAnswers(got, want); err != nil {
		t.Fatal(err)
	}
	got[0].Count++
	if checkAnswers(got, want) == nil {
		t.Fatal("count off by one passed")
	}
	got[0].Count--
	got[1].Estimate = math.Nextafter(got[1].Estimate, 0)
	if checkAnswers(got, want) == nil {
		t.Fatal("estimate off by one ulp passed")
	}
	rw := in.recons[0].want
	rg := append(rw[:0:0], rw...)
	for i := range rg {
		if rg[i].Freqs != nil {
			rg[i].Freqs = append([]float64(nil), rg[i].Freqs...)
			rg[i].Freqs[0] = math.Nextafter(rg[i].Freqs[0], 1)
			break
		}
	}
	if checkRecons(rg, rw) == nil {
		t.Fatal("frequency off by one ulp passed")
	}
}

func TestAnswerDigestsSeeOneUlp(t *testing.T) {
	_, _, in := adultTarget(t)
	want := in.queries[0].want
	got := append(want[:0:0], want...)
	got[len(got)-1].Estimate = math.Nextafter(got[len(got)-1].Estimate, math.Inf(-1))
	if answersDigest(got) == answersDigest(want) {
		t.Fatal("digest missed a one-ulp change")
	}
}
