package matchers

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"certa/internal/embedding"
	"certa/internal/nn"
)

// modelState is the gob-serializable view of a trained Model: the kind
// reconstructs the featurizer code path, the embedder carries the fitted
// IDF table, attrs the aligned-attribute list, and net the trained
// weights.
type modelState struct {
	Kind     string
	Embedder []byte
	Attrs    []string
	Net      []byte
}

// MarshalBinary serializes a trained matcher so it can be stored and
// reloaded without retraining (e.g. by cmd/certa-train).
func (m *Model) MarshalBinary() ([]byte, error) {
	st := modelState{Kind: string(m.kind)}

	emb := m.feat.embedder()
	switch f := m.feat.(type) {
	case *deepERFeat:
	case *deepMatcherFeat:
		st.Attrs = f.attrs
	case *dittoFeat:
		st.Attrs = f.attrs
	default:
		return nil, fmt.Errorf("matchers: cannot serialize featurizer %T", m.feat)
	}
	embBytes, err := emb.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st.Embedder = embBytes

	netBytes, err := m.net.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st.Net = netBytes

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("matchers: encoding model: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a matcher serialized by MarshalBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("matchers: decoding model: %w", err)
	}
	emb := embedding.New(1)
	if err := emb.UnmarshalBinary(st.Embedder); err != nil {
		return err
	}
	var net nn.Network
	if err := net.UnmarshalBinary(st.Net); err != nil {
		return err
	}

	kind := Kind(st.Kind)
	var feat featurizer
	switch kind {
	case DeepER:
		feat = &deepERFeat{emb: emb}
	case DeepMatcher, SVM:
		feat = &deepMatcherFeat{emb: emb, attrs: st.Attrs}
	case Ditto:
		feat = &dittoFeat{emb: emb, attrs: st.Attrs}
	default:
		return fmt.Errorf("matchers: decoded unknown kind %q", st.Kind)
	}
	if w := net.InputWidth(); w != feat.dim() {
		return fmt.Errorf("matchers: %s network reads %d features, its featurizer writes %d", kind, w, feat.dim())
	}
	m.kind = kind
	m.feat = feat
	m.net = &net
	// Restored models get fresh matcher-lifetime memos (they hold
	// derived data only, so nothing is serialized).
	m.initCaches()
	return nil
}
