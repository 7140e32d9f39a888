package main

import (
	"bytes"
	"testing"
)

func smallShape(t *testing.T) inputShape {
	t.Helper()
	sh, err := censusShape()
	if err != nil {
		t.Fatal(err)
	}
	sh.queryBatches, sh.perQuery = 3, 50
	sh.reconBatches, sh.perRecon = 2, 20
	sh.insertBatches, sh.clients = 3, 16
	return sh
}

// encoded concatenates every pre-encoded body and client id of a set.
func encoded(in *inputs) []byte {
	var b bytes.Buffer
	for _, q := range in.queries {
		b.Write(q.frame)
		b.Write(q.json)
	}
	for _, r := range in.recons {
		b.Write(r.frame)
		b.Write(r.json)
	}
	for _, i := range in.inserts {
		b.Write(i.frame)
		b.Write(i.json)
	}
	for _, c := range in.clients {
		b.WriteString(c)
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	sh := smallShape(t)
	a, err := genInputs(7, sh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(7, sh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(a), encoded(b)) {
		t.Fatal("one seed produced two different input sets")
	}
	c, err := genInputs(8, sh)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.queries {
		if bytes.Equal(a.queries[i].frame, c.queries[i].frame) || bytes.Equal(a.queries[i].json, c.queries[i].json) {
			t.Fatalf("seeds 7 and 8 share query batch %d", i)
		}
	}
	if bytes.Equal(a.inserts[0].frame, c.inserts[0].frame) {
		t.Fatal("seeds 7 and 8 share an insert batch")
	}
}

func TestInputsAreValid(t *testing.T) {
	sh := smallShape(t)
	in, err := genInputs(1, sh)
	if err != nil {
		t.Fatal(err)
	}
	na := sh.querySchema.NAIndices()
	for _, b := range in.queries {
		for _, q := range b.queries {
			if len(q.Conds) < 1 || len(q.Conds) > sh.queryDim {
				t.Fatalf("query with %d conditions", len(q.Conds))
			}
			seen := map[int]bool{}
			for _, c := range q.Conds {
				if seen[c.Attr] || c.Attr == sh.querySchema.SA || int(c.Value) >= sh.querySchema.Attrs[c.Attr].Domain() {
					t.Fatalf("bad condition %+v", c)
				}
				seen[c.Attr] = true
			}
		}
	}
	if len(na) == 0 {
		t.Fatal("schema has no public attributes")
	}
	// Neighbouring bodies differ: the fleet router hashes them to place reads.
	for i := 1; i < len(in.inserts); i++ {
		if bytes.Equal(in.inserts[i].frame, in.inserts[i-1].frame) {
			t.Fatal("two insert batches are identical")
		}
	}
}
