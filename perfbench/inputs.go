package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// Every input a run sends is drawn here from the workload seed and encoded
// once, before anything is timed; the timed loops only cycle through the
// pre-encoded bodies. Queries and condition sets speak original value codes
// (the binary vocabulary); the JSON bodies carry the same queries as
// original attribute names and value labels, the mapping
// experiments.WireWorkload uses, so both encodings ask the same questions.

// queryBatch is one pre-encoded /query batch.
type queryBatch struct {
	queries []wire.Query
	frame   []byte // binary /query body
	json    []byte // JSON /query body
	// want holds the in-process answers; census runs fill it once the
	// publication is up, fleet runs check against the insert prefix instead.
	want []query.Answer
}

// reconBatch is one pre-encoded /reconstruct batch.
type reconBatch struct {
	sets  [][]query.Cond
	frame []byte
	json  []byte
	want  []reconstruct.Reconstruction
}

// insertBatch is one pre-encoded /insert batch of full-width records.
type insertBatch struct {
	records [][]uint16
	frame   []byte
	json    []byte
}

// queryBody is the JSON /query request; the client id travels in the
// X-Client-ID header so one encoded body serves every client.
type queryBody struct {
	ID      string            `json:"id"`
	Queries []serve.QueryJSON `json:"queries"`
}

type reconBody struct {
	ID      string             `json:"id"`
	Subsets [][]serve.CondJSON `json:"subsets"`
}

type insertBody struct {
	ID      string              `json:"id"`
	Records []map[string]string `json:"records"`
}

// drawConds draws d distinct public attributes, d uniform in [1, maxDim],
// each with a uniform original value code.
func drawConds(rng *rand.Rand, s *dataset.Schema, maxDim int) []query.Cond {
	na := s.NAIndices()
	d := 1 + rng.Intn(maxDim)
	perm := rng.Perm(len(na))
	conds := make([]query.Cond, d)
	for i := range conds {
		a := na[perm[i]]
		conds[i] = query.Cond{Attr: a, Value: uint16(rng.Intn(s.Attrs[a].Domain()))}
	}
	return conds
}

// genQueries draws n count queries with 1..maxDim conditions and a uniform
// sensitive value.
func genQueries(rng *rand.Rand, s *dataset.Schema, n, maxDim int) []wire.Query {
	qs := make([]wire.Query, n)
	for i := range qs {
		qs[i] = wire.Query{Conds: drawConds(rng, s, maxDim), SA: uint16(rng.Intn(s.SADomain()))}
	}
	return qs
}

// genSets draws n reconstruction condition sets with 1..maxDim conditions.
func genSets(rng *rand.Rand, s *dataset.Schema, n, maxDim int) [][]query.Cond {
	sets := make([][]query.Cond, n)
	for i := range sets {
		sets[i] = drawConds(rng, s, maxDim)
	}
	return sets
}

// genRecords draws n records with a uniform code for every attribute,
// sensitive attribute included, in schema order.
func genRecords(rng *rand.Rand, s *dataset.Schema, n int) [][]uint16 {
	recs := make([][]uint16, n)
	for i := range recs {
		rec := make([]uint16, s.NumAttrs())
		for a := range rec {
			rec[a] = uint16(rng.Intn(s.Attrs[a].Domain()))
		}
		recs[i] = rec
	}
	return recs
}

// zipfClients draws n client ids from a zipf distribution over 100,000 ids,
// so a few heavy analysts and a long tail share the budget ledger.
func zipfClients(rng *rand.Rand, n int) []string {
	z := rand.NewZipf(rng, 1.1, 1, 99999)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("analyst-%05d", z.Uint64())
	}
	return ids
}

func labelConds(s *dataset.Schema, conds []query.Cond) []serve.CondJSON {
	out := make([]serve.CondJSON, len(conds))
	for i, c := range conds {
		out[i] = serve.CondJSON{Attr: s.Attrs[c.Attr].Name, Value: s.Attrs[c.Attr].Label(c.Value)}
	}
	return out
}

func newQueryBatch(id string, s *dataset.Schema, qs []wire.Query) (queryBatch, error) {
	body := queryBody{ID: id, Queries: make([]serve.QueryJSON, len(qs))}
	for i, q := range qs {
		body.Queries[i] = serve.QueryJSON{Conds: labelConds(s, q.Conds), SA: s.SAAttr().Label(q.SA)}
	}
	js, err := json.Marshal(body)
	if err != nil {
		return queryBatch{}, err
	}
	frame := (&wire.QueryReq{ID: []byte(id), Queries: qs}).Append(nil)
	return queryBatch{queries: qs, frame: frame, json: js}, nil
}

func newReconBatch(id string, s *dataset.Schema, sets [][]query.Cond) (reconBatch, error) {
	body := reconBody{ID: id, Subsets: make([][]serve.CondJSON, len(sets))}
	for i, set := range sets {
		body.Subsets[i] = labelConds(s, set)
	}
	js, err := json.Marshal(body)
	if err != nil {
		return reconBatch{}, err
	}
	frame := (&wire.ReconstructReq{ID: []byte(id), Subsets: sets}).Append(nil)
	return reconBatch{sets: sets, frame: frame, json: js}, nil
}

// newInsertBatch encodes an insert batch as a binary frame, and as JSON
// too when withJSON is set.
func newInsertBatch(id string, s *dataset.Schema, recs [][]uint16, withJSON bool) (insertBatch, error) {
	frame := (&wire.InsertReq{ID: []byte(id), NAttrs: s.NumAttrs(), Records: recs}).Append(nil)
	if !withJSON {
		return insertBatch{records: recs, frame: frame}, nil
	}
	body := insertBody{ID: id, Records: make([]map[string]string, len(recs))}
	for i, rec := range recs {
		m := make(map[string]string, len(rec))
		for a, code := range rec {
			m[s.Attrs[a].Name] = s.Attrs[a].Label(code)
		}
		body.Records[i] = m
	}
	js, err := json.Marshal(body)
	if err != nil {
		return insertBatch{}, err
	}
	return insertBatch{records: recs, frame: frame, json: js}, nil
}

// inputShape sizes one workload's pre-generated input set.
type inputShape struct {
	querySchema   *dataset.Schema // schema the queries and condition sets speak
	queryPub      string          // publication they are sent to
	queryBatches  int
	perQuery      int
	queryDim      int
	reconBatches  int
	perRecon      int
	reconDim      int
	insertSchema  *dataset.Schema
	insertPub     string
	insertBatches int
	perInsert     int
	jsonInserts   bool // encode the insert batches as JSON as well
	clients       int
}

// inputs is one workload's complete, pre-encoded request set.
type inputs struct {
	queries []queryBatch
	recons  []reconBatch
	inserts []insertBatch
	clients []string
}

// genInputs draws and encodes a workload's inputs. The draw order is fixed,
// so one seed always yields byte-identical bodies.
func genInputs(seed int64, sh inputShape) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < sh.queryBatches; i++ {
		b, err := newQueryBatch(sh.queryPub, sh.querySchema, genQueries(rng, sh.querySchema, sh.perQuery, sh.queryDim))
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, b)
	}
	for i := 0; i < sh.reconBatches; i++ {
		b, err := newReconBatch(sh.queryPub, sh.querySchema, genSets(rng, sh.querySchema, sh.perRecon, sh.reconDim))
		if err != nil {
			return nil, err
		}
		in.recons = append(in.recons, b)
	}
	for i := 0; i < sh.insertBatches; i++ {
		b, err := newInsertBatch(sh.insertPub, sh.insertSchema, genRecords(rng, sh.insertSchema, sh.perInsert), sh.jsonInserts)
		if err != nil {
			return nil, err
		}
		in.inserts = append(in.inserts, b)
	}
	in.clients = zipfClients(rng, sh.clients)
	return in, nil
}
