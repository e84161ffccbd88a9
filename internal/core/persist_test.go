package core

import (
	"bytes"
	"testing"

	"semjoin/internal/mat"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	w := getWorld(t)
	var buf bytes.Buffer
	if err := SaveModels(&buf, w.models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The loaded pair must reproduce embeddings and predictions exactly.
	for _, text := range []string{"Acme Corp", "UK", "company", "country", "unseen token"} {
		a := w.models.Word.Embed(text)
		b := loaded.Word.Embed(text)
		if len(a) != len(b) {
			t.Fatalf("embed dims differ for %q", text)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("embedding differs for %q at %d", text, i)
			}
		}
	}
	e1 := w.models.Seq.EmbedSequence([]string{"issues", "registered_in"})
	e2 := loaded.Seq.EmbedSequence([]string{"issues", "registered_in"})
	if mat.Cosine(e1, e2) < 0.999999 {
		t.Fatal("sequence embeddings differ after reload")
	}
	s1 := w.models.Seq.Start()
	s2 := loaded.Seq.Start()
	s1.Feed("Acme Corp")
	s2.Feed("Acme Corp")
	// What path selection consumes: the output score of every token.
	vocab := w.models.Seq.Vocab()
	tokens := make([]string, vocab.Size())
	for id := range tokens {
		tokens[id] = vocab.Token(id)
	}
	p1, p2 := s1.Scores(nil, tokens), s2.Scores(nil, tokens)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("next-token score of %q differs after reload", tokens[i])
		}
	}
}

func TestSaveModelsRejectsNonDefault(t *testing.T) {
	w := getWorld(t)
	var buf bytes.Buffer
	if err := SaveModels(&buf, Models{Seq: w.models.Seq, Word: w.models.Word, RandomPaths: false}); err != nil {
		t.Fatal(err)
	}
	bad := Models{Word: w.models.Word, RandomPaths: true}
	if err := SaveModels(&buf, bad); err == nil {
		t.Fatal("nil sequence model should not persist")
	}
}

func TestSaveLoadSchemeRoundTrip(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
	})
	matches := oracle(w).Match(w.products, w.g)
	if err := ex.Discover(w.products, matches); err != nil {
		t.Fatal(err)
	}
	want, err := ex.Extract()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveScheme(&buf, ex.Scheme()); err != nil {
		t.Fatal(err)
	}
	scheme, err := LoadScheme(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(scheme.Clusters) != len(ex.Scheme().Clusters) || scheme.K != ex.Scheme().K {
		t.Fatal("scheme shape changed")
	}
	// Algorithm 1 with the reloaded scheme reproduces the extraction.
	ex2 := NewExtractor(w.g, w.models, Config{K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3})
	got, err := ex2.ExtractWithScheme(w.products, scheme, matches)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(got, want) {
		t.Fatal("reloaded scheme extraction differs")
	}
}

func TestSaveLoadBaseRoundTrip(t *testing.T) {
	w := getWorld(t)
	m := buildMaterializedWorld(t, w)
	b := m.Base("product")

	var buf bytes.Buffer
	if err := SaveBase(&buf, b); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBase(bytes.NewReader(buf.Bytes()), w.products, w.g, w.models,
		oracle(w), Config{H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Extracted.Len() != b.Extracted.Len() || loaded.Extractor.MatchRelation().Len() != b.Extractor.MatchRelation().Len() {
		t.Fatal("relation sizes changed")
	}
	if len(loaded.AR()) != len(b.AR()) {
		t.Fatal("AR changed")
	}
	// The loaded materialisation answers static joins identically.
	m2 := &Materialized{g: w.g, bases: map[string]*BaseMaterialization{"product": loaded},
		gl: newGLCache()}
	got, err := m2.StaticEnrich("product", w.products, []string{"company"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.StaticEnrich("product", w.products, []string{"company"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(got, want) {
		t.Fatal("loaded static join differs")
	}
	// And IncExt still works on the reloaded extractor.
	stats, err := loaded.Extractor.ApplyGraphUpdate(nil, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	_ = stats
}

// TestLoadCorruptData drives every Save/Load pair through a shared
// corruption table: header damage, payload truncation at several
// depths, a wrong-section swap and trailing garbage after a valid
// image. Every loader must return an error — never panic, never
// accept — except for trailing garbage, which stream loaders ignore
// by design (a WAL record or snapshot section may be followed by more
// data).
func TestLoadCorruptData(t *testing.T) {
	w := getWorld(t)

	// One valid image per codec.
	var modelsBuf bytes.Buffer
	if err := SaveModels(&modelsBuf, w.models); err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(w.g, w.models, Config{K: 3, H: 12, Keywords: []string{"company"}, Seed: 3})
	if err := ex.Discover(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	var schemeBuf bytes.Buffer
	if err := SaveScheme(&schemeBuf, ex.Scheme()); err != nil {
		t.Fatal(err)
	}
	m := buildMaterializedWorld(t, w)
	var baseBuf bytes.Buffer
	if err := SaveBase(&baseBuf, m.Base("product")); err != nil {
		t.Fatal(err)
	}

	codecs := []struct {
		name  string
		valid []byte
		other []byte // a valid image of a DIFFERENT codec
		load  func([]byte) error
	}{
		{"models", modelsBuf.Bytes(), schemeBuf.Bytes(), func(d []byte) error {
			_, err := LoadModels(bytes.NewReader(d))
			return err
		}},
		{"scheme", schemeBuf.Bytes(), baseBuf.Bytes(), func(d []byte) error {
			_, err := LoadScheme(bytes.NewReader(d))
			return err
		}},
		{"base", baseBuf.Bytes(), modelsBuf.Bytes(), func(d []byte) error {
			_, err := LoadBase(bytes.NewReader(d), w.products, w.g, w.models,
				oracle(w), Config{H: 12, Seed: 3})
			return err
		}},
	}

	type mutation struct {
		name    string
		mutate  func(valid, other []byte) []byte
		allowOK bool // trailing garbage past a full image is ignored
	}
	mutations := []mutation{
		{"empty", func(v, o []byte) []byte { return nil }, false},
		{"garbage", func(v, o []byte) []byte { return []byte("garbage data here") }, false},
		{"magic-only", func(v, o []byte) []byte { return v[:4] }, false},
		{"bad-magic", func(v, o []byte) []byte {
			d := append([]byte(nil), v...)
			d[0] ^= 0xff
			return d
		}, false},
		{"header-cut", func(v, o []byte) []byte { return v[:7] }, false},
		{"payload-cut-early", func(v, o []byte) []byte { return v[:len(v)/4] }, false},
		{"payload-cut-half", func(v, o []byte) []byte { return v[:len(v)/2] }, false},
		{"payload-cut-tail", func(v, o []byte) []byte { return v[:len(v)-1] }, false},
		{"wrong-section", func(v, o []byte) []byte { return o }, false},
		{"trailing-garbage", func(v, o []byte) []byte {
			return append(append([]byte(nil), v...), "tail noise"...)
		}, true},
	}

	for _, c := range codecs {
		for _, mu := range mutations {
			t.Run(c.name+"/"+mu.name, func(t *testing.T) {
				data := mu.mutate(c.valid, c.other)
				err := c.load(data)
				if err == nil && !mu.allowOK {
					t.Fatalf("%s accepted %s (%d bytes)", c.name, mu.name, len(data))
				}
				if err != nil && mu.allowOK {
					t.Fatalf("%s rejected %s: %v", c.name, mu.name, err)
				}
			})
		}
	}
}
