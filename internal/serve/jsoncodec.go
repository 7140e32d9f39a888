package serve

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// This file is the JSON codec of the two hot served endpoints, POST /query
// and POST /reconstruct: a reflection-free decoder that fills the request
// structs out of pooled scratch, and an append-style encoder whose output
// is byte-identical to json.Marshal followed by a newline. The decode and
// encode edges of binary.go call it; every stage between them runs the
// same code whichever encoding the request used.
//
// The decoder takes only the canonical shape: exact lower-case keys, each
// at most once; strings in valid UTF-8 without control characters, whose
// only escapes are the \u003c, \u003e and \u0026 json.Marshal writes for
// <, > and &; true or false for the flags; no null; nothing but whitespace
// after the object. json.Marshal renders a request in that shape whenever
// its labels hold no quote, backslash, control character, U+2028 or
// U+2029 — true of every label of the built-in datasets, ADULT's "<=50K"
// and ">50K" included (TestBuiltinLabelsTakeFastPath). On anything else
// the decoder bails out and the handler decodes the same bytes with
// encoding/json, so every accepted value and every error message is
// encoding/json's own — case-insensitive keys, unknown fields and
// tolerated trailing data included.

// Label interning bounds: a scratch keeps at most maxInterned labels of at
// most maxInternLen bytes, and starts over once full, so a client cycling
// through unbounded vocabularies costs allocations, never memory.
const (
	maxInterned  = 4096
	maxInternLen = 128
)

// labelTable interns the attribute names and value labels of the requests
// one scratch decodes, so a warm batch allocates no string per condition.
// The strings are copies, never views into the pooled body.
type labelTable struct {
	m map[string]string
}

func (t *labelTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) > maxInternLen {
		return s
	}
	if t.m == nil || len(t.m) >= maxInterned {
		t.m = make(map[string]string, 64)
	}
	t.m[s] = s
	return s
}

// condSpan locates one decoded condition list in the scratch arena; n < 0
// marks an absent list (nil), as opposed to an empty one.
type condSpan struct{ off, n int }

// jsonScanner walks one request body. Every scanning method reports false
// when the input leaves the canonical shape.
type jsonScanner struct {
	b   []byte
	i   int
	esc []byte // decoded bytes of the last string that held escapes
}

func (s *jsonScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then c.
func (s *jsonScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// str scans a string and returns its bytes: a view into the body, or, if
// the string held escapes, its decoded bytes in s.esc, which the next call
// overwrites. The only escapes it takes are the HTML-safe ones json.Marshal
// writes (htmlEscaped).
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start, ascii, esc := s.i, true, false
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			if esc {
				s.esc = append(s.esc, v...)
				v = s.esc
			}
			s.i++
			// encoding/json replaces invalid UTF-8 with U+FFFD; leave that
			// to it.
			return v, ascii || utf8.Valid(v)
		case c == '\\':
			r := htmlEscaped(s.b[s.i:])
			if r == 0 {
				return nil, false
			}
			if !esc {
				s.esc, esc = s.esc[:0], true
			}
			s.esc = append(append(s.esc, s.b[start:s.i]...), r)
			s.i += len(`\u003c`)
			start = s.i
			continue
		case c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		s.i++
	}
	return nil, false
}

// htmlEscaped returns the byte that b opens with an escape of, if that
// escape is \u003c, \u003e or \u0026 — json.Marshal's form of <, > and & —
// and 0 otherwise.
func htmlEscaped(b []byte) byte {
	if len(b) < len(`\u003c`) || string(b[:4]) != `\u00` {
		return 0
	}
	switch string(b[4:6]) {
	case "3c":
		return '<'
	case "3e":
		return '>'
	case "26":
		return '&'
	}
	return 0
}

// boolean scans true or false.
func (s *jsonScanner) boolean() (v, ok bool) {
	s.skipSpace()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// object scans an object whose every key is one of keys, at most once;
// member scans the value of the key with the given index.
func (s *jsonScanner) object(keys []string, member func(k int) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint32
	for {
		name, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		k := keyIndex(keys, name)
		if k < 0 || seen&(1<<k) != 0 || !member(k) {
			return false
		}
		seen |= 1 << k
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array scans an array whose elements elem scans one by one.
func (s *jsonScanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

func keyIndex(keys []string, name []byte) int {
	for i, k := range keys {
		if string(name) == k {
			return i
		}
	}
	return -1
}

// label scans a string into *dst through the intern table.
func (st *binScratch) label(s *jsonScanner, dst *string) bool {
	v, ok := s.str()
	*dst = st.labels.intern(v)
	return ok
}

// Member keys, in the order of the key indexes the decoders switch on.
var (
	queryRequestKeys       = []string{"id", "client", "queries", "wait"}
	reconstructRequestKeys = []string{"id", "client", "subsets", "clamp", "wait"}
	queryKeys              = []string{"conds", "sa"}
	condKeys               = []string{"attr", "value"}
)

// scanConds scans one condition list into the arena.
func (st *binScratch) scanConds(s *jsonScanner) (condSpan, bool) {
	off := len(st.jconds)
	ok := s.array(func() bool {
		var c CondJSON
		ok := s.object(condKeys, func(k int) bool {
			if k == 0 {
				return st.label(s, &c.Attr)
			}
			return st.label(s, &c.Value)
		})
		st.jconds = append(st.jconds, c)
		return ok
	})
	return condSpan{off: off, n: len(st.jconds) - off}, ok
}

// conds returns the arena slice behind a span, capped so no consumer can
// append into a neighbour.
func (st *binScratch) conds(sp condSpan) []CondJSON {
	switch {
	case sp.n < 0:
		return nil
	case sp.n == 0:
		return []CondJSON{}
	}
	return st.jconds[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// decodeQueryJSON fills req from a canonical /query body in st.body. On
// false req is left zero and the caller falls back to encoding/json.
func (st *binScratch) decodeQueryJSON(req *queryRequest) bool {
	s := &st.scan
	*s = jsonScanner{b: st.body, esc: s.esc}
	st.jqueries, st.jconds, st.jspans = st.jqueries[:0], st.jconds[:0], st.jspans[:0]
	hasQueries := false
	ok := s.object(queryRequestKeys, func(k int) bool {
		switch k {
		case 0:
			return st.label(s, &req.ID)
		case 1:
			v, ok := s.str()
			req.Client = string(v)
			return ok
		case 2:
			hasQueries = true
			return s.array(func() bool {
				var q QueryJSON
				sp := condSpan{n: -1}
				ok := s.object(queryKeys, func(k int) bool {
					if k == 0 {
						var ok bool
						sp, ok = st.scanConds(s)
						return ok
					}
					return st.label(s, &q.SA)
				})
				st.jqueries = append(st.jqueries, q)
				st.jspans = append(st.jspans, sp)
				return ok
			})
		default:
			var ok bool
			req.Wait, ok = s.boolean()
			return ok
		}
	})
	if !ok || !s.end() {
		*req = queryRequest{}
		return false
	}
	if hasQueries {
		req.Queries = []QueryJSON{}
		if n := len(st.jqueries); n > 0 {
			req.Queries = st.jqueries[:n:n]
		}
		for i, sp := range st.jspans {
			req.Queries[i].Conds = st.conds(sp)
		}
	}
	return true
}

// decodeReconstructJSON is decodeQueryJSON for a /reconstruct body.
func (st *binScratch) decodeReconstructJSON(req *reconstructRequest) bool {
	s := &st.scan
	*s = jsonScanner{b: st.body, esc: s.esc}
	st.jconds, st.jspans = st.jconds[:0], st.jspans[:0]
	hasSubsets := false
	ok := s.object(reconstructRequestKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			return st.label(s, &req.ID)
		case 1:
			v, ok := s.str()
			req.Client = string(v)
			return ok
		case 2:
			hasSubsets = true
			return s.array(func() bool {
				sp, ok := st.scanConds(s)
				st.jspans = append(st.jspans, sp)
				return ok
			})
		case 3:
			req.Clamp, ok = s.boolean()
		default:
			req.Wait, ok = s.boolean()
		}
		return ok
	})
	if !ok || !s.end() {
		*req = reconstructRequest{}
		return false
	}
	if hasSubsets {
		st.jsubsets = st.jsubsets[:0]
		for _, sp := range st.jspans {
			st.jsubsets = append(st.jsubsets, st.conds(sp))
		}
		req.Subsets = [][]CondJSON{}
		if n := len(st.jsubsets); n > 0 {
			req.Subsets = st.jsubsets[:n:n]
		}
	}
	return true
}

// --- encoding ---

// freqKey is one sensitive value in the order json.Marshal writes a
// label-keyed map: the value's dense code and its rendered `"label":` key.
type freqKey struct {
	code uint16
	key  []byte
}

// freqKeysOf sorts a sensitive domain's labels the way encoding/json sorts
// map keys. Were two codes to share a label, a map would keep the last code
// written — the highest — so only that one is kept.
func freqKeysOf(labels []string) []freqKey {
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return labels[order[a]] < labels[order[b]] })
	keys := make([]freqKey, 0, len(labels))
	for i, c := range order {
		if i+1 < len(order) && labels[order[i+1]] == labels[c] {
			continue
		}
		key := append(appendJSONString(nil, labels[c]), ':')
		keys = append(keys, freqKey{code: uint16(c), key: key})
	}
	return keys
}

// ledgerFields is the tail both responses end with, from "client" on.
type ledgerFields struct {
	client                            string
	charged, clientQueries, remaining int64
	exact, warn                       bool
	serveMicros                       int64
}

// appendQueryResponse appends out as json.Marshal renders it, plus a
// newline. It fails exactly where json.Marshal would: on a NaN or infinite
// estimate.
func appendQueryResponse(dst []byte, out *QueryResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, out.ID)
	dst = append(dst, `,"answers":`...)
	if out.Answers == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range out.Answers {
			a := &out.Answers[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"count":`...)
			dst = strconv.AppendInt(dst, int64(a.Count), 10)
			dst = append(dst, `,"estimate":`...)
			if dst, err = appendJSONFloat(dst, a.Estimate); err != nil {
				return dst, err
			}
			if a.Error != "" {
				dst = append(dst, `,"error":`...)
				dst = appendJSONString(dst, a.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return appendLedger(dst, ledgerFields{out.Client, out.Charged, out.ClientQueries,
		out.BudgetRemaining, out.BudgetExact, out.ExposureWarning, out.ServeMicros}), nil
}

// appendReconstructResponse appends, plus a newline, the bytes json.Marshal
// renders for the ReconstructResponse of publication id whose results are
// recs: a failed result as size 0 and its error message, any other as its
// size and, unless empty, its dense frequencies written in keys order as
// the label-keyed object Reconstruction.Freqs marshals to. It fails
// exactly where json.Marshal would: on a NaN or infinite frequency.
func appendReconstructResponse(dst []byte, id string, recs []reconstruct.Reconstruction, keys []freqKey, l ledgerFields) ([]byte, error) {
	var err error
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"results":[`...)
	for i := range recs {
		rec := &recs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		if rec.Err != nil {
			dst = append(dst, `{"size":0`...)
			if msg := rec.Err.Error(); msg != "" {
				dst = append(dst, `,"error":`...)
				dst = appendJSONString(dst, msg)
			}
			dst = append(dst, '}')
			continue
		}
		dst = append(dst, `{"size":`...)
		dst = strconv.AppendInt(dst, int64(rec.Size), 10)
		if f := rec.Freqs; len(f) > 0 {
			dst = append(dst, `,"freqs":{`...)
			first := true
			for _, k := range keys {
				if int(k.code) >= len(f) {
					continue
				}
				if !first {
					dst = append(dst, ',')
				}
				first = false
				dst = append(dst, k.key...)
				if dst, err = appendJSONFloat(dst, f[k.code]); err != nil {
					return dst, err
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	return appendLedger(dst, l), nil
}

// appendLedger appends the ledger tail, the closing brace and the newline.
func appendLedger(dst []byte, l ledgerFields) []byte {
	dst = append(dst, `,"client":`...)
	dst = appendJSONString(dst, l.client)
	dst = append(dst, `,"charged":`...)
	dst = strconv.AppendInt(dst, l.charged, 10)
	dst = append(dst, `,"client_queries":`...)
	dst = strconv.AppendInt(dst, l.clientQueries, 10)
	dst = append(dst, `,"budget_remaining":`...)
	dst = strconv.AppendInt(dst, l.remaining, 10)
	if l.exact {
		dst = append(dst, `,"budget_exact":true`...)
	}
	if l.warn {
		dst = append(dst, `,"exposure_warning":true`...)
	}
	dst = append(dst, `,"serve_us":`...)
	dst = strconv.AppendInt(dst, l.serveMicros, 10)
	return append(dst, "}\n"...)
}

// appendJSONFloat formats f like encoding/json: 'f' notation, or 'e' below
// 1e-6 and from 1e21 up with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s like encoding/json with HTML escaping on:
// quotes, backslashes and control characters escaped, <, > and & as
// \u00XX, U+2028 and U+2029 escaped, invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
