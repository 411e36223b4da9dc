package embedding

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// embedderState is the gob-serializable view of an Embedder.
type embedderState struct {
	Dim        int
	IDF        map[string]float64
	DefaultIDF float64
}

// MarshalBinary serializes the embedder (dimension and fitted IDF
// table). Token vectors are hash-derived and need no storage.
func (e *Embedder) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	st := embedderState{Dim: e.Dim, IDF: e.idf, DefaultIDF: e.defaultIDF}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("embedding: encoding embedder: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores an embedder serialized by MarshalBinary.
func (e *Embedder) UnmarshalBinary(data []byte) error {
	var st embedderState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("embedding: decoding embedder: %w", err)
	}
	if st.Dim <= 0 || st.Dim > maxDim {
		return fmt.Errorf("embedding: decoded dimension %d is outside 1..%d", st.Dim, maxDim)
	}
	e.Dim = st.Dim
	e.idf = st.IDF
	e.defaultIDF = st.DefaultIDF
	if e.defaultIDF == 0 {
		e.defaultIDF = 1
	}
	return nil
}
