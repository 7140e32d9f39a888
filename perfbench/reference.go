package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// The reference kernel is a fixed piece of work built from the standard
// library alone, so no change to the repository's code changes it. The
// timed loops run one unit of it every refEvery, and the bounded cost
// metrics divide an operation's CPU time by the unit's, both taken at the
// same quantile over the same run. The machines this runs on change speed
// with what their other tenants do, by a fifth or more from one minute to
// the next, and that moves a unit and a batch alike; the ratio keeps what
// the program itself costs. A unit takes about a millisecond of CPU time and
// does, in turn, the three kinds of work the serving path does: random reads
// over a table far larger than a core's L2 cache, an encoding/json round trip
// and a loopback HTTP request through net/http.

// refEvery is how often the timed loops run a reference unit.
const refEvery = 10 * time.Millisecond

const (
	refTableWords = 1 << 23 // 32 MiB of uint32
	refReads      = 50000
	refItems      = 300
	refUpload     = 8 << 10
	refReply      = 32 << 10
)

type refDoc struct {
	Items []refItem `json:"items"`
}

type refItem struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
	Count int    `json:"count"`
}

// refKernel runs reference units and keeps the CPU time of each.
type refKernel struct {
	table []uint32
	x     uint32 // random-read state, carried from unit to unit
	sink  uint32 // keeps the reads from being optimized away
	doc   refDoc
	body  []byte
	ts    *httptest.Server
	hc    *http.Client
	last  time.Time
	units latencies
	err   error // the first failed request, if any
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint32, refTableWords), x: 1, body: bytes.Repeat([]byte{'r'}, refUpload)}
	for i := range k.table {
		k.table[i] = uint32(i) * 2654435761
	}
	for i := 0; i < refItems; i++ {
		k.doc.Items = append(k.doc.Items, refItem{Attr: "attribute", Value: "value-label", Count: i})
	}
	reply := bytes.Repeat([]byte{'x'}, refReply)
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(reply)
	}))
	k.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: time.Minute}
	return k
}

func (k *refKernel) close() {
	k.hc.CloseIdleConnections()
	k.ts.Close()
}

// maybe runs a unit when refEvery has passed since the last one.
func (k *refKernel) maybe() {
	if time.Since(k.last) >= refEvery {
		k.unit()
		k.last = time.Now()
	}
}

// unit runs one reference unit and records its process CPU time.
func (k *refKernel) unit() {
	c0 := processCPU()
	x, sum, mask := k.x, uint32(0), uint32(len(k.table)-1)
	for i := 0; i < refReads; i++ {
		x = x*1664525 + 1013904223
		sum += k.table[x&mask]
	}
	k.x, k.sink = x, k.sink+sum
	var doc refDoc
	b, err := json.Marshal(&k.doc)
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err == nil {
		err = k.post()
	}
	if err != nil {
		if k.err == nil {
			k.err = err
		}
		return
	}
	k.units = append(k.units, sample{cpu: processCPU() - c0})
}

func (k *refKernel) post() error {
	resp, err := k.hc.Post(k.ts.URL, "application/octet-stream", bytes.NewReader(k.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && n != refReply {
		err = fmt.Errorf("reference reply of %d bytes, want %d", n, refReply)
	}
	return err
}
