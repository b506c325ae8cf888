package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// JSONLSink serializes events as one JSON object per line:
//
//	{"ts":1712345678901234567,"type":"episode","client":3,"episode":17,"reward":-123.4}
//
// ts is wall-clock Unix nanoseconds. The serialization buffer is reused
// under the lock, so steady-state emission does not grow the heap. Write
// errors are sticky: the first one is retained (see Err) and subsequent
// events are dropped instead of spamming a broken writer.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL builds a sink writing to w. The caller owns w's lifecycle.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, time.Now().UnixNano(), 10)
	b = append(b, `,"type":`...)
	b = strconv.AppendQuote(b, e.Type)
	if e.Client >= 0 {
		b = append(b, `,"client":`...)
		b = strconv.AppendInt(b, int64(e.Client), 10)
	}
	if e.Round >= 0 {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(e.Round), 10)
	}
	if e.Episode >= 0 {
		b = append(b, `,"episode":`...)
		b = strconv.AppendInt(b, int64(e.Episode), 10)
	}
	for _, f := range e.Fields() {
		b = append(b, ',')
		b = strconv.AppendQuote(b, f.Key)
		b = append(b, ':')
		if f.Str != "" {
			b = strconv.AppendQuote(b, f.Str)
		} else {
			b = appendJSONFloat(b, f.Val)
		}
	}
	b = append(b, '}', '\n')
	s.buf = b
	_, s.err = s.w.Write(b)
}

// Err returns the first write error encountered, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// appendJSONFloat renders v as a JSON number; NaN/±Inf (which JSON cannot
// represent) become null.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// MemorySink retains every event in memory — the test double.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *MemorySink) Emit(e *Event) {
	m.mu.Lock()
	m.events = append(m.events, *e)
	m.mu.Unlock()
}

// Events returns a snapshot of everything emitted so far.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}
