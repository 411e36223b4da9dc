package matchers

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func TestModelSerializationRoundtrip(t *testing.T) {
	b, models := testBenchmark(t)
	for kind, m := range models {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var back Model
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if back.Kind() != kind {
			t.Errorf("kind lost: %s vs %s", back.Kind(), kind)
		}
		// Scores must be bit-identical across the roundtrip.
		for _, p := range b.Test[:20] {
			want := m.Score(p.Pair)
			got := back.Score(p.Pair)
			if math.Abs(want-got) > 1e-15 {
				t.Fatalf("%s: score drift %v vs %v on %s", kind, got, want, p.Key())
			}
		}
	}
}

func TestModelUnmarshalGarbage(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary([]byte("not a model")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

// TestModelUnmarshalRejectsWidthMismatch: a network whose input width
// differs from its featurizer's (here one aligned attribute is dropped
// from the state) fails to load instead of panicking at its first
// Score.
func TestModelUnmarshalRejectsWidthMismatch(t *testing.T) {
	_, models := testBenchmark(t)
	data, err := models[DeepMatcher].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	st.Attrs = st.Attrs[1:]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var m Model
	if err := m.UnmarshalBinary(buf.Bytes()); err == nil {
		t.Fatal("a network one attribute block wider than its featurizer loaded")
	}
}

// TestModelUnmarshalRejectsOversizedEmbedder: the DeepMatcher, SVM and
// Ditto networks read a width that does not depend on the embedding
// dimension, so the width check cannot catch a corrupt one. A state
// whose embedder claims 1<<40 dimensions must fail to load rather than
// load and die at its first Score with an unrecoverable out-of-memory
// error.
func TestModelUnmarshalRejectsOversizedEmbedder(t *testing.T) {
	_, models := testBenchmark(t)
	for _, kind := range []Kind{DeepMatcher, Ditto} {
		data, err := models[kind].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var st modelState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		// Field names are what gob matches, so this struct re-encodes
		// the embedder's state with a new Dim.
		var emb struct {
			Dim        int
			IDF        map[string]float64
			DefaultIDF float64
		}
		if err := gob.NewDecoder(bytes.NewReader(st.Embedder)).Decode(&emb); err != nil {
			t.Fatal(err)
		}
		emb.Dim = 1 << 40
		var eb, buf bytes.Buffer
		if err := gob.NewEncoder(&eb).Encode(emb); err != nil {
			t.Fatal(err)
		}
		st.Embedder = eb.Bytes()
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var m Model
		if err := m.UnmarshalBinary(buf.Bytes()); err == nil {
			t.Fatalf("%s: a model whose embedder has 1<<40 dimensions loaded", kind)
		}
	}
}
