package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// The correctness gate: every served answer is compared bit for bit with
// what the in-process engine computes for the same inputs. A mismatch is a
// failed operation, and any failed operation fails the run.

// engineQueries maps wire queries (original codes) onto the publication's
// engine codes, the translation the binary handler applies.
func engineQueries(pub *serve.Publication, qs []wire.Query) ([]query.Query, error) {
	out := make([]query.Query, len(qs))
	for i, q := range qs {
		conds := append([]query.Cond(nil), q.Conds...)
		if err := pub.MapConds(conds); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		if err := pub.MapSA(q.SA); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = query.Query{Conds: conds, SA: q.SA}
	}
	return out, nil
}

// engineSets maps condition sets onto engine codes.
func engineSets(pub *serve.Publication, sets [][]query.Cond) ([][]query.Cond, error) {
	out := make([][]query.Cond, len(sets))
	for i, set := range sets {
		conds := append([]query.Cond(nil), set...)
		if err := pub.MapConds(conds); err != nil {
			return nil, fmt.Errorf("set %d: %w", i, err)
		}
		out[i] = conds
	}
	return out, nil
}

// wantAnswers is Marginals.AnswerBatch on the publication, the in-process
// reference every served /query answer must equal.
func wantAnswers(pub *serve.Publication, qs []wire.Query) ([]query.Answer, error) {
	eq, err := engineQueries(pub, qs)
	if err != nil {
		return nil, err
	}
	ans := pub.Marg.AnswerBatch(eq, pub.Req.P, runtime.GOMAXPROCS(0))
	for i := range ans {
		if ans[i].Err != nil {
			return nil, fmt.Errorf("query %d: in-process answer failed: %w", i, ans[i].Err)
		}
	}
	return ans, nil
}

// wantRecons is Engine.ReconstructBatch on the publication.
func wantRecons(pub *serve.Publication, sets [][]query.Cond) ([]reconstruct.Reconstruction, error) {
	es, err := engineSets(pub, sets)
	if err != nil {
		return nil, err
	}
	recs := pub.Eng.ReconstructBatch(es, reconstruct.BatchOptions{})
	for i := range recs {
		if recs[i].Err != nil {
			return nil, fmt.Errorf("set %d: in-process reconstruction failed: %w", i, recs[i].Err)
		}
	}
	return recs, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Served answers of either encoding are first normalized into the engine's
// result types; one comparison then covers binary, JSON and fleet replies.

func fromWireAnswers(got []wire.Answer) ([]query.Answer, error) {
	out := make([]query.Answer, len(got))
	for i, a := range got {
		if a.Err != nil {
			return nil, fmt.Errorf("answer %d: served error %q", i, a.Err)
		}
		out[i] = query.Answer{Count: int(a.Count), Estimate: a.Estimate}
	}
	return out, nil
}

func fromJSONAnswers(got []serve.QueryAnswer) ([]query.Answer, error) {
	out := make([]query.Answer, len(got))
	for i, a := range got {
		if a.Error != "" {
			return nil, fmt.Errorf("answer %d: served error %q", i, a.Error)
		}
		out[i] = query.Answer{Count: a.Count, Estimate: a.Estimate}
	}
	return out, nil
}

func fromWireRecons(got []wire.RecResult) ([]reconstruct.Reconstruction, error) {
	out := make([]reconstruct.Reconstruction, len(got))
	for i, r := range got {
		if r.Err != nil {
			return nil, fmt.Errorf("result %d: served error %q", i, r.Err)
		}
		out[i] = reconstruct.Reconstruction{Size: int(r.Size), Freqs: append([]float64(nil), r.Freqs...)}
		if len(r.Freqs) == 0 {
			out[i].Freqs = nil
		}
	}
	return out, nil
}

// fromJSONRecons turns label-keyed frequencies back into dense vectors
// indexed by sensitive-value code.
func fromJSONRecons(got []serve.Reconstruction, sa *dataset.Attribute) ([]reconstruct.Reconstruction, error) {
	out := make([]reconstruct.Reconstruction, len(got))
	for i, r := range got {
		if r.Error != "" {
			return nil, fmt.Errorf("result %d: served error %q", i, r.Error)
		}
		out[i].Size = r.Size
		if len(r.Freqs) == 0 {
			continue
		}
		out[i].Freqs = make([]float64, sa.Domain())
		for label, f := range r.Freqs {
			code, err := sa.Code(label)
			if err != nil {
				return nil, fmt.Errorf("result %d: %w", i, err)
			}
			out[i].Freqs[code] = f
		}
		if len(r.Freqs) != sa.Domain() {
			return nil, fmt.Errorf("result %d: %d frequencies, domain %d", i, len(r.Freqs), sa.Domain())
		}
	}
	return out, nil
}

// checkAnswers requires every count and estimate to equal the reference bit
// for bit.
func checkAnswers(got, want []query.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Count != w.Count || !sameFloat(g.Estimate, w.Estimate) {
			return fmt.Errorf("answer %d: served (%d, %v), in-process (%d, %v)", i, g.Count, g.Estimate, w.Count, w.Estimate)
		}
	}
	return nil
}

// checkRecons requires every size and frequency to equal the reference bit
// for bit.
func checkRecons(got, want []reconstruct.Reconstruction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Size != w.Size || len(g.Freqs) != len(w.Freqs) {
			return fmt.Errorf("result %d: served size %d with %d freqs, in-process %d with %d", i, g.Size, len(g.Freqs), w.Size, len(w.Freqs))
		}
		for v := range g.Freqs {
			if !sameFloat(g.Freqs[v], w.Freqs[v]) {
				return fmt.Errorf("result %d: freq %d served %v, in-process %v", i, v, g.Freqs[v], w.Freqs[v])
			}
		}
	}
	return nil
}

// answersDigest fingerprints counts and estimate bits in order.
func answersDigest(as []query.Answer) uint64 {
	h := fnv.New64a()
	var w [16]byte
	for _, a := range as {
		binary.LittleEndian.PutUint64(w[:8], uint64(a.Count))
		binary.LittleEndian.PutUint64(w[8:], math.Float64bits(a.Estimate))
		h.Write(w[:])
	}
	return h.Sum64()
}

// reconsDigest fingerprints sizes and frequency bits in order.
func reconsDigest(rs []reconstruct.Reconstruction) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(w[:], uint64(r.Size))
		h.Write(w[:])
		binary.LittleEndian.PutUint64(w[:], uint64(len(r.Freqs)))
		h.Write(w[:])
		for _, f := range r.Freqs {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(f))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}
