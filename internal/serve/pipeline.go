package serve

import (
	"fmt"
	"os"
	"time"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// publishSeed derives the RNG seed of one publication generation. Generation
// 0 uses the requested seed verbatim, so a served publication is
// bit-identical to what cmd/rpperturb produces offline with the same seed;
// refreshes mix the generation through SplitMix64 for a well-separated
// fresh stream.
func publishSeed(seed int64, generation int) int64 {
	if generation == 0 {
		return seed
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(generation)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// loadTable returns the raw table behind a request, generating (or reading)
// it at most once per source: results are cached by sourceKey and a cache
// miss runs under singleflight, so a stampede of publishes over one dataset
// — a parameter sweep, say — generates the 300K-record CENSUS exactly once.
func (s *Server) loadTable(req *PublishRequest) (*dataset.Table, error) {
	key := req.sourceKey()
	s.tables.mu.RLock()
	t := s.tables.m[key]
	s.tables.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	v, err, _ := s.sf.Do("table:"+key, func() (any, error) {
		s.tables.mu.RLock()
		t := s.tables.m[key]
		s.tables.mu.RUnlock()
		if t != nil {
			return t, nil
		}
		t, err := generateTable(req)
		if err != nil {
			return nil, err
		}
		// Prime the lazy label indexes while the table is still private to
		// this flight: concurrent builds sharing the cached table (and the
		// query path resolving labels) may then use Code read-only.
		t.Schema.PrimeIndexes()
		s.tables.mu.Lock()
		s.tables.m[key] = t
		s.tables.mu.Unlock()
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*dataset.Table), nil
}

// generateTable materializes the request's data source.
func generateTable(req *PublishRequest) (*dataset.Table, error) {
	switch req.Dataset {
	case DatasetAdult:
		return datagen.Adult(req.DataSeed), nil
	case DatasetCensus:
		return datagen.Census(req.Size, req.DataSeed)
	case DatasetMedical:
		return datagen.Medical(req.Size, req.DataSeed)
	case DatasetMedicalColor:
		return datagen.MedicalWithColor(req.Size, req.DataSeed)
	case DatasetCSV:
		f, err := os.Open(req.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadCSV(f, req.SA)
	}
	return nil, fmt.Errorf("serve: unknown dataset %q", req.Dataset)
}

// buildPublication runs the full pipeline for one generation of a
// publication: load (cached) raw data, generalize, publish with the
// requested method, and index the result for answering. It is the only
// expensive path in the server and runs outside all registry locks; its
// output is immutable.
//
// The cold path is fused and parallel (Config.PipelineWorkers wide): the
// chi-square analysis is one sharded scan (chimerge.Analyze), the
// generalized table is never materialized — grouping applies the value
// mappings on the fly (dataset.GroupsOfMapped) — and the marginal cubes
// fill concurrently. Every stage is bit-identical at any worker count, so
// a publication is still reproducible from its seed alone.
func (s *Server) buildPublication(e *Entry, generation int) (*Publication, error) {
	req := &e.reqCopy
	start := time.Now()
	raw, err := s.loadTable(req)
	if err != nil {
		return nil, err
	}

	workers := s.cfg.PipelineWorkers
	var merge *chimerge.Result
	mapping := make([]*dataset.ValueMapping, raw.Schema.NumAttrs())
	if sig := *req.Significance; sig > 0 {
		merge, err = chimerge.Analyze(raw, sig, workers)
		if err != nil {
			return nil, err
		}
		for i := range merge.Mappings {
			mapping[merge.Mappings[i].Attr] = &merge.Mappings[i]
		}
	}
	groupsOf := func() (*dataset.GroupSet, error) {
		if merge != nil {
			return dataset.GroupsOfMapped(raw, merge.Mappings, workers)
		}
		return dataset.GroupsOfParallel(raw, workers), nil
	}

	pm := req.Params()
	seed := publishSeed(req.Seed, generation)
	var published, rawGroups *dataset.GroupSet
	var meta core.Meta
	switch req.Method {
	case MethodSPS:
		groups, err := groupsOf()
		if err != nil {
			return nil, err
		}
		out, st, err := core.PublishSPSParallel(seed, groups, pm, s.cfg.PublishWorkers)
		if err != nil {
			return nil, err
		}
		published, rawGroups, meta = out, groups, core.ExtractMeta(groups, pm, st)
	case MethodUP:
		groups, err := groupsOf()
		if err != nil {
			return nil, err
		}
		out, err := core.PublishUPParallel(seed, groups, pm.P, s.cfg.PublishWorkers)
		if err != nil {
			return nil, err
		}
		published, rawGroups, meta = out, groups, core.ExtractMeta(groups, pm, nil)
	case MethodIncremental:
		// Incremental publications never generalize, so raw is the working
		// table (Normalize forces Significance to 0).
		published, rawGroups, meta, err = s.buildIncremental(e, raw, pm, seed, generation)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: unknown method %q", req.Method)
	}

	marg, err := query.BuildMarginalsFromGroupsParallel(published, req.MaxDim, workers)
	if err != nil {
		return nil, err
	}
	eng, err := reconstruct.NewEngine(marg, pm.P)
	if err != nil {
		return nil, err
	}
	// Label resolution runs concurrently across query workers; the lazy
	// label indexes must be built before the schemas are shared. The raw
	// schema was primed by loadTable (it is shared across builds); the
	// generalized schema is private to this build (Remap clones it), except
	// for incremental publications, where it aliases the already-primed raw
	// schema and priming again only reads.
	marg.Schema.PrimeIndexes()
	return &Publication{
		ID:         e.id,
		Key:        e.key,
		Req:        e.reqCopy,
		Generation: generation,
		CreatedAt:  time.Now(),
		BuildTime:  time.Since(start),
		Meta:       meta,
		Marg:       marg,
		Eng:        eng,
		Groups:     rawGroups,
		Orig:       raw.Schema,
		mapping:    mapping,
		freqKeys:   freqKeysOf(raw.Schema.SAAttr().Values),
	}, nil
}

// buildIncremental creates (generation 0) or rebuilds (refresh) the
// streaming publisher behind an incremental publication and snapshots it.
// The raw-group snapshot rides along for the audit endpoint (RawGroups
// materializes fresh slices, so the snapshot never aliases the live
// publisher state).
func (s *Server) buildIncremental(e *Entry, work *dataset.Table, pm core.Params, seed int64, generation int) (*dataset.GroupSet, *dataset.GroupSet, core.Meta, error) {
	e.incMu.Lock()
	defer e.incMu.Unlock()
	if e.inc == nil {
		inc, err := core.NewIncremental(work.Schema, pm, stats.NewRand(seed))
		if err != nil {
			return nil, nil, core.Meta{}, err
		}
		if err := inc.AddTable(work); err != nil {
			return nil, nil, core.Meta{}, err
		}
		e.inc = inc
	} else if generation > 0 {
		if err := e.inc.Rebuild(); err != nil {
			return nil, nil, core.Meta{}, err
		}
	}
	// The snapshot below captures the publisher's entire current state, so
	// the delta baselines must advance with it — otherwise the first
	// FlushDelta after this build would re-emit everything the index already
	// holds as a delta generation.
	e.inc.MarkFlushed()
	e.dirty.Store(false)
	snap := e.inc.Snapshot()
	// Metadata derives from the publisher's current raw histograms, not the
	// generation-0 table: after inserts, a refresh must report the stream's
	// violation profile, not the initial batch's.
	raw := e.inc.RawGroups()
	meta := core.ExtractMeta(raw, pm, nil)
	meta.RecordsOut = snap.Total()
	return snap, raw, meta, nil
}

// reindexIncremental rebuilds the marginal index of a dirty incremental
// publication and swaps in a fresh Publication value. It runs under
// singleflight so a burst of queries behind one insert wave triggers one
// snapshot + one index build; queries racing the rebuild are answered from
// the previous index (stale by at most the in-flight insert batch, a
// documented property of the endpoint).
func (s *Server) reindexIncremental(e *Entry) (*Publication, error) {
	v, err, _ := s.sf.Do("reindex:"+e.id, func() (any, error) {
		old := e.pub.Load()
		if !e.dirty.Load() {
			return old, nil
		}
		e.incMu.Lock()
		e.dirty.Store(false)
		snap := e.inc.Snapshot()
		raw := e.inc.RawGroups()
		// Full snapshot taken: advance the delta baselines under the same
		// lock hold so no concurrent insert can flush state this snapshot
		// already covers as a duplicate delta.
		e.inc.MarkFlushed()
		e.incMu.Unlock()
		meta := core.ExtractMeta(raw, old.Req.Params(), nil)
		meta.RecordsOut = snap.Total()
		marg, err := query.BuildMarginalsFromGroupsParallel(snap, old.Req.MaxDim, s.cfg.PipelineWorkers)
		if err != nil {
			return nil, err
		}
		eng, err := reconstruct.NewEngine(marg, old.Req.P)
		if err != nil {
			return nil, err
		}
		pub := *old // shallow copy: shared fields are immutable
		pub.Marg = marg
		pub.Eng = eng
		pub.Groups = raw
		pub.Meta = meta
		if !e.pub.CompareAndSwap(old, &pub) {
			// A concurrent /refresh swapped in a new generation while we
			// re-indexed. Depending on snapshot order either publication may
			// be fresher, so keep the refresh (its generation bump must not
			// be lost) and set dirty again: the next query re-indexes on top
			// of it if inserts are not yet reflected.
			e.dirty.Store(true)
			return e.pub.Load(), nil
		}
		return &pub, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Publication), nil
}
