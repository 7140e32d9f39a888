package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// client is one closed-loop caller with its own keep-alive connection: it
// sends a request, waits for the whole reply, decodes it and normalizes the
// answers for the correctness gate.
type client struct {
	hc   *http.Client
	base string
	sa   *dataset.Attribute // sensitive attribute, for JSON reconstruct labels
	buf  bytes.Buffer
	qr   wire.QueryResp
	rr   wire.ReconstructResp
	ir   wire.InsertResp
}

func newClient(base string, sa *dataset.Attribute) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, sa: sa}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// inEncoding picks the body of a batch in one encoding.
func inEncoding(js, frame []byte, binary bool) []byte {
	if binary {
		return frame
	}
	return js
}

// reply is one decoded response.
type reply struct {
	answers  []query.Answer
	recons   []reconstruct.Reconstruction
	charged  int64
	inserted int
	total    int // an insert ack's total_records
}

// post sends body and reads the whole response into c.buf; anything but
// 200 is an error.
func (c *client) post(path string, binary bool, clientID string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %d: %.200s", path, resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

func (c *client) query(b *queryBatch, binary bool, clientID string) (reply, error) {
	if err := c.post("/query", binary, clientID, inEncoding(b.json, b.frame, binary)); err != nil {
		return reply{}, err
	}
	return decodeQuery(c.buf.Bytes(), binary, &c.qr)
}

// decodeQuery normalizes a /query response body of either encoding.
func decodeQuery(body []byte, binary bool, qr *wire.QueryResp) (reply, error) {
	if binary {
		if err := qr.Decode(body); err != nil {
			return reply{}, err
		}
		ans, err := fromWireAnswers(qr.Answers)
		return reply{answers: ans, charged: int64(qr.Charged)}, err
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return reply{}, err
	}
	ans, err := fromJSONAnswers(out.Answers)
	return reply{answers: ans, charged: out.Charged}, err
}

func (c *client) reconstruct(b *reconBatch, binary bool, clientID string) (reply, error) {
	if err := c.post("/reconstruct", binary, clientID, inEncoding(b.json, b.frame, binary)); err != nil {
		return reply{}, err
	}
	return decodeRecon(c.buf.Bytes(), binary, &c.rr, c.sa)
}

// decodeRecon normalizes a /reconstruct response body of either encoding.
func decodeRecon(body []byte, binary bool, rr *wire.ReconstructResp, sa *dataset.Attribute) (reply, error) {
	if binary {
		if err := rr.Decode(body); err != nil {
			return reply{}, err
		}
		recs, err := fromWireRecons(rr.Results)
		return reply{recons: recs, charged: int64(rr.Charged)}, err
	}
	var out serve.ReconstructResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return reply{}, err
	}
	recs, err := fromJSONRecons(out.Results, sa)
	return reply{recons: recs, charged: out.Charged}, err
}

func (c *client) insert(b *insertBatch, binary bool) (reply, error) {
	if err := c.post("/insert", binary, "", inEncoding(b.json, b.frame, binary)); err != nil {
		return reply{}, err
	}
	return decodeInsert(c.buf.Bytes(), binary, &c.ir)
}

// decodeInsert reads an insert ack of either encoding.
func decodeInsert(body []byte, binary bool, ir *wire.InsertResp) (reply, error) {
	if binary {
		if err := ir.Decode(body); err != nil {
			return reply{}, err
		}
		return reply{inserted: int(ir.Inserted), total: int(ir.TotalRecords)}, nil
	}
	var out struct {
		Inserted     int `json:"inserted"`
		TotalRecords int `json:"total_records"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return reply{}, err
	}
	return reply{inserted: out.Inserted, total: out.TotalRecords}, nil
}

// tally is one client's account of a timed window: operations attempted
// and failed, what the server should have counted, and latency samples.
// Each client fills its own; they are merged once the clients stop.
type tally struct {
	attempted, failed int64
	queryBatches      int64
	queries           int64
	reconBatches      int64
	subsets           int64
	charged           int64
	insertBatches     int64
	inserted          int64
	q, r, ins         latencies
	errs              []string
}

// fail records a failed operation, keeping the first few reasons.
func (t *tally) fail(what string, err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.queryBatches += o.queryBatches
	t.queries += o.queries
	t.reconBatches += o.reconBatches
	t.subsets += o.subsets
	t.charged += o.charged
	t.insertBatches += o.insertBatches
	t.inserted += o.inserted
	t.q = append(t.q, o.q...)
	t.r = append(t.r, o.r...)
	t.ins = append(t.ins, o.ins...)
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}
