package rel

import (
	"bytes"
	"context"
	"testing"
)

// FuzzPersistRoundTrip drives the relation codec with arbitrary bytes.
// Two properties: LoadRelation must never panic or over-allocate on
// corrupt input (it returns an error instead), and any relation that
// does load must survive a Save/Load round-trip as a byte-level
// fixpoint — re-encoding the loaded relation and re-loading it yields
// the identical encoding (corrupt value kinds normalise to Null on
// first load, so the fixpoint starts after one decode).
func FuzzPersistRoundTrip(f *testing.F) {
	seed := func(r *Relation) {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	typical := NewRelation(NewSchema("product", "pid",
		Attribute{Name: "pid", Type: KindString},
		Attribute{Name: "price", Type: KindInt},
		Attribute{Name: "score", Type: KindFloat},
		Attribute{Name: "open", Type: KindBool},
	))
	typical.InsertVals(S("p0"), I(60), F(0.5), B(true))
	typical.InsertVals(S("p1"), I(-7), F(-1.25), B(false))
	typical.Insert(Tuple{S("p2"), Null, Null, Null})
	seed(typical)
	seed(NewRelation(NewSchema("empty", "",
		Attribute{Name: "only", Type: KindString})))
	f.Add([]byte{})
	f.Add([]byte("relation"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := LoadRelation(bytes.NewReader(data))
		if err != nil {
			return // rejecting corrupt input is the expected outcome
		}
		var first bytes.Buffer
		if err := r.Save(&first); err != nil {
			t.Fatalf("loadable relation failed to save: %v", err)
		}
		r2, err := LoadRelation(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded relation failed to load: %v", err)
		}
		var second bytes.Buffer
		if err := r2.Save(&second); err != nil {
			t.Fatalf("round-tripped relation failed to save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save/Load is not a fixpoint:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzBatchRoundTrip drives the columnar conversion with arbitrary
// relations (decoded through the persist codec, which rejects corrupt
// bytes). Two round trips must be lossless for values, nulls, order
// and schema: tuple-at-a-time conversion through one Batch, and a
// scan of the relation's cached columnar image materialised back into
// tuples, at a batch size derived from the input (so batch boundaries
// land everywhere, including mid-relation and past the end).
func FuzzBatchRoundTrip(f *testing.F) {
	seed := func(r *Relation) {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(3))
	}
	typical := NewRelation(NewSchema("product", "pid",
		Attribute{Name: "pid", Type: KindString},
		Attribute{Name: "price", Type: KindInt},
		Attribute{Name: "score", Type: KindFloat},
		Attribute{Name: "open", Type: KindBool},
	))
	typical.InsertVals(S("p0"), I(60), F(0.5), B(true))
	typical.InsertVals(S("p1"), I(-7), F(-1.25), B(false))
	typical.Insert(Tuple{S("p2"), Null, Null, Null})
	typical.Insert(Tuple{Null, Null, Null, Null})
	seed(typical)
	empty := NewRelation(NewSchema("empty", "",
		Attribute{Name: "only", Type: KindString}))
	seed(empty)
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, sizeByte uint8) {
		r, err := LoadRelation(bytes.NewReader(data))
		if err != nil {
			return // rejecting corrupt input is the expected outcome
		}
		sameTuple := func(where string, i int, got, want Tuple) {
			if len(got) != len(want) {
				t.Fatalf("%s: row %d has %d values, want %d", where, i, len(got), len(want))
			}
			for c := range want {
				if got[c].Kind() != want[c].Kind() || got[c].Key() != want[c].Key() {
					t.Fatalf("%s: row %d col %d = %v (%v), want %v (%v)",
						where, i, c, got[c], got[c].Kind(), want[c], want[c].Kind())
				}
			}
		}
		// Round trip 1: tuples through one Batch and back.
		b := NewBatch(r.Schema)
		for _, tup := range r.Tuples {
			b.AppendTuple(tup)
		}
		if b.Rows() != r.Len() {
			t.Fatalf("batch rows = %d, want %d", b.Rows(), r.Len())
		}
		for i, want := range r.Tuples {
			sameTuple("batch", i, b.TupleAt(i), want)
		}
		// Round trip 2: scan the relation's columnar image and
		// materialise it, at a fuzzed batch size.
		size := int(sizeByte)%(r.Len()+2) + 1
		out, err := Materialize(context.Background(), NewScanSize(r, size))
		if err != nil {
			t.Fatalf("scan pipeline: %v", err)
		}
		if out.Schema.String() != r.Schema.String() {
			t.Fatalf("scan schema = %s, want %s", out.Schema, r.Schema)
		}
		if out.Len() != r.Len() {
			t.Fatalf("scan rows = %d, want %d", out.Len(), r.Len())
		}
		for i, want := range r.Tuples {
			sameTuple("scan", i, out.Tuples[i], want)
		}
	})
}
