package obs

import (
	"encoding/json"
	"time"
)

// spanJSON is Span's wire shape: attributes appear as a plain list only
// when present, keeping serialized traces compact.
type spanJSON struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// MarshalJSON serializes the span with its inline attributes.
func (s Span) MarshalJSON() ([]byte, error) {
	js := spanJSON{Name: s.Name, StartNS: int64(s.Start), DurNS: int64(s.Dur)}
	if s.nattrs > 0 {
		js.Attrs = s.attrs[:s.nattrs]
	}
	return json.Marshal(js)
}

// UnmarshalJSON restores a span serialized by MarshalJSON. Attributes
// beyond the inline capacity are dropped.
func (s *Span) UnmarshalJSON(data []byte) error {
	var js spanJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*s = NewSpan(js.Name, time.Duration(js.StartNS), time.Duration(js.DurNS), js.Attrs)
	return nil
}
